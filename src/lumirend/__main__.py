"""`python -m lumirend`: the `lumirend` command without an install."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
