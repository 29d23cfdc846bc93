"""Unit tests for the named access patterns and the trace format."""

import random

import pytest

from repro.workloads.patterns import (
    READ,
    UPDATE,
    Op,
    ScanHotPattern,
    SequentialPattern,
    StridedPattern,
    Trace,
    TraceError,
    TracePattern,
    TraceRecorder,
    YcsbPattern,
    ZipfPattern,
    default_pattern_set,
    load_trace,
    make_pattern,
    pattern_names,
    record_pattern,
)

N_PAGES = 32
N_OPS = 400


def collect(pattern, n_pages=N_PAGES, n_ops=N_OPS, seed=9):
    return list(pattern.ops(n_pages, n_ops, random.Random(seed)))


class TestOp:
    def test_validation(self):
        with pytest.raises(ValueError):
            Op("write", 0)
        with pytest.raises(ValueError):
            Op(READ, -1)


class TestRegistry:
    def test_all_expected_names_registered(self):
        names = pattern_names()
        for expected in (
            "sequential",
            "strided",
            "zipf-0.6",
            "zipf-0.9",
            "zipf-0.99",
            "zipf-1.2",
            "scan-hot",
            "ycsb-a",
            "ycsb-b",
            "ycsb-c",
            "ycsb-d",
            "ycsb-e",
            "ycsb-f",
        ):
            assert expected in names

    def test_make_pattern_is_case_insensitive(self):
        assert make_pattern("YCSB-A").name == "ycsb-a"

    def test_unknown_name_lists_registry(self):
        with pytest.raises(ValueError, match="registered:"):
            make_pattern("nope")

    def test_default_pattern_set_instantiates_everything(self):
        patterns = default_pattern_set()
        assert len(patterns) == len(pattern_names())

    def test_every_registered_pattern_yields_valid_ops(self):
        for name in pattern_names():
            ops = collect(make_pattern(name), n_ops=60)
            assert len(ops) == 60, name
            assert all(0 <= op.pid < N_PAGES for op in ops), name


class TestDeterminism:
    @pytest.mark.parametrize("name", ["zipf-0.9", "scan-hot", "ycsb-a", "ycsb-d"])
    def test_same_seed_same_stream(self, name):
        assert collect(make_pattern(name)) == collect(make_pattern(name))

    def test_different_seed_different_stream(self):
        a = collect(make_pattern("zipf-0.9"), seed=1)
        b = collect(make_pattern("zipf-0.9"), seed=2)
        assert a != b


class TestShapes:
    def test_sequential_wraps(self):
        ops = collect(SequentialPattern(), n_pages=8, n_ops=20)
        assert [op.pid for op in ops[:10]] == [0, 1, 2, 3, 4, 5, 6, 7, 0, 1]
        assert all(op.kind == UPDATE for op in ops)

    def test_strided_covers_every_page(self):
        ops = collect(StridedPattern(stride=7), n_pages=16, n_ops=16)
        assert sorted(op.pid for op in ops) == list(range(16))

    def test_strided_bumps_stride_until_coprime(self):
        # stride 4 shares a factor with 16 pages; the walk must still
        # visit all of them.
        ops = collect(StridedPattern(stride=4), n_pages=16, n_ops=16)
        assert len({op.pid for op in ops}) == 16

    def test_zipf_skew_orders_by_theta(self):
        def hot_mass(theta):
            ops = collect(ZipfPattern(theta), n_ops=2000)
            counts = {}
            for op in ops:
                counts[op.pid] = counts.get(op.pid, 0) + 1
            top = sorted(counts.values(), reverse=True)[: N_PAGES // 10]
            return sum(top) / len(ops)

        assert hot_mass(1.2) > hot_mass(0.6)

    def test_zipf_hot_set_not_contiguous(self):
        ops = collect(ZipfPattern(1.2), n_ops=2000)
        counts = {}
        for op in ops:
            counts[op.pid] = counts.get(op.pid, 0) + 1
        hottest = sorted(counts, key=counts.get, reverse=True)[:3]
        assert hottest != sorted(hottest) or max(hottest) - min(hottest) > 3

    def test_scan_hot_mixes_reads_and_updates(self):
        ops = collect(ScanHotPattern(scan_every=10), n_pages=16, n_ops=120)
        kinds = {op.kind for op in ops}
        assert kinds == {READ, UPDATE}
        scan_pids = [op.pid for op in ops if op.kind == READ]
        assert set(scan_pids) == set(range(16))  # full sweeps

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            StridedPattern(stride=0)
        with pytest.raises(ValueError):
            ZipfPattern(theta=-1.0)
        with pytest.raises(ValueError):
            ZipfPattern(pct_read=150.0)
        with pytest.raises(ValueError):
            ScanHotPattern(scan_every=0)
        with pytest.raises(ValueError):
            ScanHotPattern(hot_fraction=0.0)
        with pytest.raises(ValueError):
            YcsbPattern("z")


class TestYcsb:
    def test_mix_proportions_roughly_hold(self):
        ops = collect(YcsbPattern("b"), n_ops=2000)
        updates = sum(1 for op in ops if op.kind == UPDATE)
        assert 0.01 < updates / len(ops) < 0.12  # nominal 5%

    def test_c_is_read_only(self):
        ops = collect(YcsbPattern("c"))
        assert all(op.kind == READ for op in ops)

    def test_f_pairs_reads_with_updates(self):
        ops = collect(YcsbPattern("f"), n_ops=1000)
        for i, op in enumerate(ops):
            if op.kind == UPDATE:
                assert ops[i - 1] == Op(READ, op.pid)

    def test_e_emits_sequential_scan_runs(self):
        ops = collect(YcsbPattern("e"), n_ops=1000)
        runs = 0
        for i in range(len(ops) - 1):
            a, b = ops[i], ops[i + 1]
            if a.kind == READ and b.kind == READ and b.pid == (a.pid + 1) % N_PAGES:
                runs += 1
        assert runs > 50

    def test_d_reads_recently_updated_pages(self):
        ops = collect(YcsbPattern("d"), n_ops=2000)
        updated = set()
        latest_reads = total_reads = 0
        for op in ops:
            if op.kind == UPDATE:
                updated.add(op.pid)
            elif updated:
                total_reads += 1
                if op.pid in updated:
                    latest_reads += 1
        assert latest_reads / total_reads > 0.5


class TestTraceFormat:
    def test_round_trip(self, tmp_path):
        recorder = TraceRecorder(n_pages=16)
        recorder.record(READ, 3)
        recorder.record(UPDATE, 15)
        path = recorder.save(tmp_path / "t.trace", comment="two ops\nfor testing")
        trace = load_trace(path)
        assert trace.n_pages == 16
        assert trace.ops == [Op(READ, 3), Op(UPDATE, 15)]

    def test_recorder_rejects_out_of_range_pid(self):
        recorder = TraceRecorder(n_pages=4)
        with pytest.raises(TraceError):
            recorder.record(READ, 4)

    def test_record_pattern_replays_identically(self, tmp_path):
        recorder = record_pattern(ZipfPattern(0.9), N_PAGES, 100, seed=5)
        path = recorder.save(tmp_path / "zipf.trace")
        replayed = list(
            TracePattern(path).ops(N_PAGES, 100, random.Random(0))
        )
        assert replayed == collect(ZipfPattern(0.9), n_ops=100, seed=5)

    @pytest.mark.parametrize(
        "content",
        [
            "",
            "wrong-magic v1 pages=8\n",
            "repro-trace v2 pages=8\n",
            "repro-trace v1 pages=x\n",
            "repro-trace v1 pages=0\n",
            "repro-trace v1 pages=8\nw 1\n",
            "repro-trace v1 pages=8\nr 8\n",
            "repro-trace v1 pages=8\nr one\n",
            "repro-trace v1 pages=8\nr 1 2\n",
        ],
    )
    def test_malformed_traces_rejected(self, tmp_path, content):
        path = tmp_path / "bad.trace"
        path.write_text(content)
        with pytest.raises(TraceError):
            load_trace(path)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "c.trace"
        path.write_text("repro-trace v1 pages=4\n\n# note\nr 0\n\nu 3\n")
        assert load_trace(path).ops == [Op(READ, 0), Op(UPDATE, 3)]

    def test_checked_in_trace_loads(self):
        from pathlib import Path

        trace = load_trace(
            Path(__file__).resolve().parents[2]
            / "benchmarks"
            / "traces"
            / "oltp_hotset.trace"
        )
        assert trace.n_pages == 64
        assert len(trace.ops) > 100


class TestTracePattern:
    def test_cycles_when_short(self):
        trace = Trace(n_pages=4, ops=[Op(UPDATE, 0), Op(READ, 2)])
        ops = list(TracePattern(trace).ops(4, 5, random.Random(0)))
        assert ops == [
            Op(UPDATE, 0),
            Op(READ, 2),
            Op(UPDATE, 0),
            Op(READ, 2),
            Op(UPDATE, 0),
        ]

    def test_folds_pids_into_smaller_database(self):
        trace = Trace(n_pages=64, ops=[Op(UPDATE, 63)])
        ops = list(TracePattern(trace).ops(16, 1, random.Random(0)))
        assert ops == [Op(UPDATE, 63 % 16)]

    def test_empty_trace_rejected(self):
        with pytest.raises(TraceError):
            TracePattern(Trace(n_pages=4, ops=[]))
