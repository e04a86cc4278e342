"""What importing the package and running each command loads, and the
public names the package hands out on first access."""

import importlib
from pathlib import Path

import pytest

import figfig
from children import run_python

BFILE = Path(__file__).resolve().parent / "data" / "b005228.txt"

# The body of the `figfig` script: one run_cli call on the child's argv.
CLI_RUN = "from figfig.cli import run_cli\nstatus = run_cli(sys.argv[1:])\nassert status == 0"

LIBRARY_CALLS = [
    ("figfig.eval_u_series(2, 64)\nfigfig.eval_a_series(2, 64)", {"figfig.series"}),
    ("figfig.check_all(100)", {"figfig.checks", "figfig.stream"}),
    ('figfig.decade_remainder_means("u", 1, 1, 2)', {"figfig.remainders", "figfig.stream", "figfig.series"}),
    ('figfig.parse_bfile("1 1\\n2 3\\n")', {"figfig.stream", "figfig.bfile"}),
    ('figfig.compare_reference(figfig.parse_bfile("1 1\\n2 3\\n"), "a")', {"figfig.stream", "figfig.bfile"}),
]

COMMANDS = [
    (("gen", "--seq", "a", "--count", "10"), {"stream"}),
    (("verify", "--check", "all", "--upto", "100"), {"stream", "checks"}),
    (("approx", "--seq", "a", "--order", "3", "--n", "1000"), {"stream", "series"}),
    (("compare", "--seq", "a", "--bfile", str(BFILE)), {"stream", "bfile"}),
    (("remainder", "--seq", "u", "--order", "1", "--ns", "10,100"), {"stream", "remainders", "series"}),
]


def loaded_after(code, *argv, site=True):
    """The names in sys.modules at the end of a fresh interpreter running code.

    With site=False the child runs as `python -S`, so it imports nothing
    that code does not (a `site` hook may import typing, say), and finds
    figfig through PYTHONPATH alone.
    """
    report = "\nprint('\\n'.join(sys.modules), file=sys.stderr)"
    proc = run_python(
        "-c", "import sys\n" + code + report, *argv,
        flags=() if site else ("-S",),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.splitlines())


def loaded_by_cli(*argv):
    """sys.modules at the end of one run_cli call, the body of the `figfig` script."""
    return loaded_after(CLI_RUN, *argv)


def test_bare_import_loads_no_module_of_the_package():
    loaded = loaded_after("import figfig")
    assert "figfig" in loaded
    assert not {name for name in loaded if name.startswith("figfig.")}
    assert not loaded & {"argparse", "dataclasses", "fractions", "decimal", "json"}


@pytest.mark.parametrize("call, modules", LIBRARY_CALLS)
def test_library_calls_load_only_their_modules(call, modules):
    loaded = loaded_after("import figfig\n" + call)
    assert {name for name in loaded if name.startswith("figfig.")} == modules
    assert not loaded & {"dataclasses", "fractions", "decimal", "json", "argparse"}


@pytest.mark.parametrize("argv, modules", COMMANDS)
def test_commands_load_only_their_modules(argv, modules):
    # None of them loads dataclasses, fractions, decimal or json; only
    # compare loads the b-file code, only verify loads the checks, and
    # only remainder loads the remainder tools.
    loaded = loaded_by_cli(*argv)
    assert {name for name in loaded if name.startswith("figfig.")} == {"figfig.cli"} | {
        f"figfig.{module}" for module in modules
    }
    assert not loaded & {"dataclasses", "fractions", "decimal", "json"}


@pytest.mark.parametrize(
    "code, argv",
    [pytest.param("import figfig", (), id="import")]
    + [pytest.param("import figfig\n" + call, (), id=call.split("(")[0]) for call, _ in LIBRARY_CALLS]
    + [pytest.param(CLI_RUN, argv, id=argv[0]) for argv, _ in COMMANDS],
)
def test_no_module_imports_typing_or_future_without_site(code, argv):
    # Annotations are plain builtins and collections.abc, evaluated at
    # import; loading typing or __future__ would add to every cold start.
    loaded = loaded_after(code, *argv, site=False)
    assert "figfig" in loaded
    assert not loaded & {"typing", "__future__"}


@pytest.mark.parametrize(
    "code, argv",
    [pytest.param("import figfig\n" + call, (), id=call.split("(")[0])
     for call, modules in LIBRARY_CALLS if "figfig.bfile" in modules]
    + [pytest.param(CLI_RUN, argv, id=argv[0]) for argv, modules in COMMANDS if "bfile" in modules],
)
def test_bfile_reads_load_no_struct_without_site(code, argv):
    # The value store names its element type once, in array("q"), and fills
    # itself with array.fromlist, so reading a b-file needs no struct.
    loaded = loaded_after(code, *argv, site=False)
    assert "figfig.bfile" in loaded
    assert "struct" not in loaded


def test_series_call_loads_no_collections_abc_without_site():
    # The series module annotates with quoted names, so its first call
    # imports no collections.abc where nothing else has (functools still
    # loads collections itself).
    loaded = loaded_after("import figfig\nfigfig.eval_u_series(2, 64)", site=False)
    assert "figfig.series" in loaded
    assert "collections.abc" not in loaded


def test_every_public_name_is_the_object_of_its_home_module():
    assert sorted(figfig.__all__) == figfig.__all__
    assert len(figfig.__all__) == 27
    for name in figfig.__all__:
        home = importlib.import_module(f"figfig.{figfig._HOMES[name]}")
        assert getattr(figfig, name) is getattr(home, name), name
    # Each home module's __all__ lists exactly the names the package takes from it.
    for module in set(figfig._HOMES.values()):
        names = sorted(name for name, home in figfig._HOMES.items() if home == module)
        assert sorted(importlib.import_module(f"figfig.{module}").__all__) == names, module


def test_bfile_module_loads_the_stream_alone():
    # The b-file reader takes its report type from the stream, not from
    # the law checks.
    loaded = loaded_after("import figfig.bfile")
    assert {name for name in loaded if name.startswith("figfig.")} == {"figfig.stream", "figfig.bfile"}


def test_check_report_is_one_class_under_every_name():
    import figfig.checks
    import figfig.stream

    assert figfig._HOMES["CheckReport"] == "stream"
    assert figfig.CheckReport is figfig.stream.CheckReport is figfig.checks.CheckReport
    assert "CheckReport" not in figfig.checks.__all__


def test_checks_module_holds_no_remainder_tools():
    # The remainder tools live in figfig.remainders alone; the checks
    # module keeps no second path to them.
    import figfig.checks

    assert not hasattr(figfig.checks, "remainder_table")


def test_dir_lists_every_public_name():
    assert set(figfig.__all__) <= set(dir(figfig))
    assert "__version__" in dir(figfig)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from figfig import *", namespace)
    for name in figfig.__all__:
        assert namespace[name] is getattr(figfig, name), name


def test_unknown_attribute_raises_the_standard_error():
    with pytest.raises(AttributeError, match=r"^module 'figfig' has no attribute 'no_such_name'$"):
        figfig.no_such_name
    assert not hasattr(figfig, "_check_order")
