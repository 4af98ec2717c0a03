"""``python -m axcrf``: the same command line as the ``axcrf`` script."""

from axcrf.cli import main

if __name__ == "__main__":
    main()
