"""``python -m proxgrad``: the same command line as the ``proxgrad`` script."""

from .cli import entry_point

if __name__ == "__main__":
    entry_point()
