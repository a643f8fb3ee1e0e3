"""``python -m geoipm``: the ``geoipm`` command line."""

from .harness.cli import main

if __name__ == "__main__":
    main()
