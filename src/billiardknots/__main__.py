"""`python -m billiardknots ARGS` runs the CLI from a source checkout."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
