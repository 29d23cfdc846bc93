"""Fixture: specific catches, collected and re-raised errors (0 findings)."""


def collected(tasks, errors):
    for task in tasks:
        try:
            task()
        except ValueError as exc:
            errors.append(exc)


def rethrown(chip):
    try:
        chip.close()
    except Exception:
        raise RuntimeError("close failed") from None

