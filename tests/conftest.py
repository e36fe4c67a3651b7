import os

import _acreport
from _trustcheck import trusted_builds  # noqa: F401  (a shared fixture)


def pytest_configure(config):
    # hypothesis caches the literals it reads from local source under its
    # home directory, ./.hypothesis by default; keep it in pytest's cache
    cache = getattr(config, "cache", None)
    if cache is not None:
        os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY",
                              str(cache.mkdir("hypothesis")))


def pytest_terminal_summary(terminalreporter):
    if _acreport.LINES:
        terminalreporter.section("acceptance criteria")
        for line in _acreport.LINES:
            terminalreporter.line(line)
