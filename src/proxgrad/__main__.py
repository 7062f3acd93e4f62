"""``python -m proxgrad``: the same command line as the ``proxgrad`` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
