"""Fixture: closed chip, closed backend, paired hooks (0 findings)."""


def closed_backend(path):
    backend = FileBackend.open(path)  # noqa: F821
    try:
        backend.sync()
    finally:
        backend.close()


def closed_chip(spec, pid):
    chip = FlashChip(spec)  # noqa: F821
    try:
        chip.program_page(pid, b"x")
    finally:
        chip.close()


def escaping_chip(spec, registry):
    chip = FlashChip(spec)  # noqa: F821
    registry.append(chip)  # ownership handed off; caller closes


class HookPairer:
    def arm(self, chip, callback):
        self.chip = chip
        chip.on_operation(callback)

    def disarm(self):
        self.chip.on_operation(None)
