"""Settings shared by every test under tests/."""

import pytest

# A failing hypothesis test's report imports libcst to write a patch, and
# libcst warns on import; under -W error that warning stopped pytest with
# INTERNALERROR instead of reporting the failure.  A mark on each item
# outranks the command line's -W error, which a pyproject.toml filter
# does not.
LIBCST_IMPORT_WARNING = "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"


def pytest_collection_modifyitems(items):
    for item in items:
        item.add_marker(pytest.mark.filterwarnings(LIBCST_IMPORT_WARNING))
