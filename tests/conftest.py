import os


def pytest_configure(config):
    # Hypothesis writes caches (literals read from the source, Unicode
    # tables) even without an example database; keep them in pytest's cache
    # directory rather than in a .hypothesis/ directory in the tree.
    os.environ.setdefault(
        "HYPOTHESIS_STORAGE_DIRECTORY", str(config.rootpath / ".pytest_cache" / "hypothesis")
    )
