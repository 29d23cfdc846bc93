"""Experiment 7 / Figure 18: TPC-C I/O time per transaction vs buffer size.

Paper shapes asserted: at every buffer size the ordering is
IPL(64KB) > IPL(18KB) and OPU > PDL(2KB) > PDL(256B) (I/O time, worse to
better), with PDL(256B) winning by the paper's reported 1.2–6.1× margin
over the alternatives; larger buffers reduce everyone's I/O.
"""

from repro.bench.experiments import experiment7

FRACTIONS = (0.002, 0.01, 0.05, 0.1)


def test_experiment7_figure18(run_experiment, scale):
    table = run_experiment(experiment7, scale, buffer_fractions=FRACTIONS)

    def v(method, fraction):
        return table.value(
            "io_us_per_txn", method=method, buffer_fraction=fraction
        )

    for fraction in FRACTIONS:
        pdl256 = v("PDL (256B)", fraction)
        pdl2k = v("PDL (2KB)", fraction)
        opu = v("OPU", fraction)
        ipl18 = v("IPL (18KB)", fraction)
        ipl64 = v("IPL (64KB)", fraction)
        # the paper's ordering, worst to best (10% tolerance between
        # the two IPL variants, which run close at small scales)
        assert ipl64 > 0.9 * ipl18
        assert opu > pdl2k > pdl256
        assert ipl18 > pdl256
        # improvement factor in the paper's reported 1.2-6.1x ballpark
        assert 1.1 <= opu / pdl256 <= 8.0

    # a bigger buffer means less flash I/O for every method
    for method in ("PDL (256B)", "OPU", "IPL (18KB)"):
        assert v(method, 0.1) < v(method, 0.002)

