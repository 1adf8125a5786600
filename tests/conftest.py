import csv
import functools
import inspect
import pathlib
import sys
import warnings

import pytest
from hypothesis import strategies as st

from temporaltable import build, gaps, rolling, timepoint as tp, verbs
from temporaltable.table import validate_table

TESTS = pathlib.Path(__file__).parent
DATA = TESTS / "data"


def pytest_configure(config):
    """Build Hypothesis's Unicode character table before any test runs.

    The first ``st.text()`` draw builds it, which takes seconds when no
    ``.hypothesis/`` directory caches it (a fresh checkout), and the test
    that happens to draw first then fails the "input generation is slow"
    health check.  ``example()`` warns that it is meant for interactive
    use; here it only warms the table.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        st.text().example()


def _checked(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        validate_table(getattr(result, "table", result))
        return result

    return wrapper


@pytest.fixture(autouse=True, scope="session")
def validate_every_result():
    """Check every table that a verb, fill_gaps or roll_by_key returns.

    The verbs rebuild their results with trusted constructors that skip the
    checks a verb cannot break; this reruns the full contract on each result
    so the whole suite doubles as an oracle for them.  The wrappers replace
    the functions wherever the package or a test module holds them,
    including aliases such as ``from temporaltable import filter as tfilter``.
    """
    verb_fns = [
        fn
        for name, fn in inspect.getmembers(verbs, inspect.isfunction)
        # arrange lists rows for presentation and returns no table.
        if fn.__module__ == verbs.__name__ and not name.startswith("_") and name != "arrange"
    ]
    wrapped = {fn: _checked(fn) for fn in [*verb_fns, gaps.fill_gaps, rolling.roll_by_key]}
    with pytest.MonkeyPatch.context() as mp:
        for mod_name, module in list(sys.modules.items()):
            path = getattr(module, "__file__", None)
            ours = mod_name.split(".")[0] == "temporaltable"
            if not ours and not (path and pathlib.Path(path).parent == TESTS):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    mp.setattr(module, attr, wrapped[value])
        yield


def load_tuberculosis() -> dict[str, list]:
    """The 12-row tuberculosis fixture as typed columns."""
    with open(DATA / "tuberculosis.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {
        "country": [r["country"] for r in rows],
        "continent": [r["continent"] for r in rows],
        "gender": [r["gender"] for r in rows],
        "year": [tp.year(int(r["year"])) for r in rows],
        "count": [int(r["count"]) for r in rows],
    }


@pytest.fixture
def tb_raw():
    return load_tuberculosis()


@pytest.fixture
def tb(tb_raw):
    return build(tb_raw, index="year", key=("country", "gender"))


def table_rows(t) -> list[dict]:
    """Materialized rows, for independent brute-force checks."""
    return [t.row(i) for i in range(t.nrows)]


def pytest_terminal_summary(terminalreporter):
    """Print one line per acceptance criterion once capture is released."""
    mod = sys.modules.get("test_acceptance")
    results = getattr(mod, "RESULTS", None)
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(results):
        desc, ok = results[num]
        verdict = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"[criterion {num:02d}] {verdict}  {desc}")


def assert_same_table(a, b, ignore_column_order=False):
    """Column-wise equality; optionally after aligning column order."""
    assert sorted(a.columns) == sorted(b.columns)
    if not ignore_column_order:
        assert a.column_names == b.column_names
    assert a.index == b.index
    assert a.key == b.key
    assert a.interval == b.interval
    for name in a.columns:
        assert a.kind_of(name) == b.kind_of(name), name
        assert a.column(name) == b.column(name), name
