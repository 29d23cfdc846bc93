"""Nothing lives here any more; ``journal.py`` beside this file says why
the package still exists."""
