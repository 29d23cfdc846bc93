"""Fixture: unclosed chip, unclosed backend, armed hook (3 findings)."""


def dropped_backend(path):
    backend = FileBackend.open(path)  # noqa: F821
    backend.sync()


def dropped_chip(spec, pid):
    chip = FlashChip(spec)  # noqa: F821
    chip.program_page(pid, b"x")
    return pid


class HookLeaker:
    def arm(self, chip, callback):
        chip.on_operation(callback)
