"""The package's public names: each one ``__all__`` lists is there, once;
and the names the benchmark tracer wraps are where it wraps them."""

import pathlib
import subprocess
import sys

import temporaltable


def test_every_public_name_resolves():
    missing = [name for name in temporaltable.__all__ if not hasattr(temporaltable, name)]
    assert missing == []


def test_public_names_are_listed_once():
    names = temporaltable.__all__
    assert sorted(set(names)) == sorted(names)


def test_the_benchmark_tracer_installs():
    # bench/tracer.py replaces library functions at the module attributes
    # the library calls them through, so moving one breaks the traced
    # benchmark; installing it in a fresh interpreter finds that here.
    root = pathlib.Path(__file__).resolve().parents[1]
    code = (
        "import sys; sys.path[:0] = sys.argv[1:]; import temporaltable; "
        "from tracer import Tracer, install; install(Tracer('check'), temporaltable)"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", code, str(root / "bench"), str(root / "src")],
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
