"""Flag handling, file execution, imports, and exit codes."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cattkernel import cli as X
from cattkernel import nbe as N
from cattkernel import surface as R
from cattkernel.nbe import EvalConfig
from cattkernel.typecheck import CheckError, Checker, OperationSet

ROOT = Path(__file__).resolve().parent.parent
MONOIDAL = ROOT / "catt" / "monoidal.catt"


def src_env() -> dict:
    """The environment with the package's source first on the path."""
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


def run_python(code: str, *args: str, timeout: float = 120) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=ROOT, env=src_env(), capture_output=True, text=True, timeout=timeout,
    )


# ---------------------------------------------------------------------------
# flags


def test_default_configuration():
    opts = X.parse_args([])
    assert opts.config == N.WEAK
    assert opts.ops is OperationSet.REGULAR
    assert opts.keep_implicits is False and opts.files == ()


def test_preset_flags():
    assert X.parse_args(["--su"]).config == N.SU
    assert X.parse_args(["--sua"]).config == N.SUA


def test_flags_apply_left_to_right():
    opts = X.parse_args(["--su", "--insertion", "none"])
    assert opts.config == EvalConfig(dr=True, ecr=True, insertion="none")
    assert X.parse_args(["--dr", "on", "--sua"]).config == N.SUA


def test_individual_toggles():
    opts = X.parse_args(["--dr", "on", "--ecr", "off"])
    assert opts.config == EvalConfig(dr=True, ecr=False, insertion="none")
    assert X.parse_args(["--insertion", "full"]).config.insertion == "full"


def test_ops_flag():
    assert X.parse_args(["--ops", "groupoidal"]).ops is OperationSet.GROUPOIDAL


def test_keep_implicits_and_files():
    opts = X.parse_args(["--keep-implicits", "a.catt", "b.catt"])
    assert opts.keep_implicits is True and opts.files == ("a.catt", "b.catt")


def test_oracle_trace_flag(tmp_path, capsys):
    f = tmp_path / "a.catt"
    f.write_text("def one [f] = comp\nnormalise one(f) in [f]\n")
    assert X.main(["--su", "--oracle", str(f)]) == 0
    out = capsys.readouterr().out
    assert "oracle:" in out and "[dr]" in out


def test_oracle_trace_follows_the_theory(tmp_path, capsys):
    f = tmp_path / "a.catt"
    f.write_text("normalise comp[f, id(y)] in (x : *), (y : *), (f : x -> y)\n")
    assert X.main(["--oracle", str(f)]) == 0
    out = capsys.readouterr().out
    assert len([ln for ln in out.splitlines() if ln.startswith("oracle:")]) == 1
    assert "[prune]" not in out and "[dr]" not in out
    assert X.main(["--dr", "on", "--oracle", str(f)]) == 2
    assert "--su" in capsys.readouterr().err


def test_validation_route_not_loaded_without_oracle():
    code = (
        "import sys\n"
        "from cattkernel import cli\n"
        "assert cli.main(['--su', 'catt/monoidal.catt']) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('cattkernel')))\n"
    )
    proc = run_python(code)
    assert proc.returncode == 0, proc.stderr
    loaded = ast.literal_eval(proc.stdout.splitlines()[-1])
    kernel = ["cli", "core", "nbe", "surface", "trees", "typecheck"]
    assert loaded == ["cattkernel"] + [f"cattkernel.{m}" for m in kernel]


def test_cli_imports_no_dataclasses():
    # syntax nodes are slotted records: the dataclass decorator, and the
    # inspect module that dataclasses imports, were most of the import time
    code = (
        "import sys\n"
        "import cattkernel.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    proc = run_python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_trees_loads_no_other_module():
    code = (
        "import sys\n"
        "import cattkernel.trees\n"
        "print(sorted(m for m in sys.modules if m.startswith('cattkernel')))\n"
    )
    proc = run_python(code)
    assert proc.returncode == 0, proc.stderr
    loaded = ast.literal_eval(proc.stdout.splitlines()[-1])
    assert loaded == ["cattkernel", "cattkernel.trees"]


def test_bad_flag_values():
    with pytest.raises(X.UsageError):
        X.parse_args(["--dr", "maybe"])
    with pytest.raises(X.UsageError):
        X.parse_args(["--insertion", "sometimes"])
    with pytest.raises(X.UsageError):
        X.parse_args(["--ops", "lax"])
    with pytest.raises(X.UsageError):
        X.parse_args(["--frobnicate"])
    with pytest.raises(X.UsageError):
        X.parse_args(["--dr"])


def test_usage_error_exit_code(capsys):
    assert X.main(["--frobnicate"]) == 2
    assert "frobnicate" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# running files


def test_running_a_file(tmp_path, capsys):
    f = tmp_path / "a.catt"
    f.write_text("def one [f] = comp\nassert one(f) = comp[f] in [f]\n")
    assert X.main([str(f)]) == 0
    out = capsys.readouterr().out
    assert "defined one" in out and "assertion holds" in out


def test_type_error_gives_exit_code_one(tmp_path, capsys):
    f = tmp_path / "a.catt"
    f.write_text("def bad (x : *) = y\n")
    assert X.main([str(f)]) == 1
    assert "error" in capsys.readouterr().err


def test_parse_error_gives_exit_code_one(tmp_path, capsys):
    f = tmp_path / "a.catt"
    f.write_text("def = ]\n")
    assert X.main([str(f)]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("ty", ["S(*)", "(x -> y)(x)"], ids=["susp", "app"])
def test_types_are_not_suspended_or_applied(tmp_path, capsys, ty):
    f = tmp_path / "a.catt"
    f.write_text(f"def x (a : {ty}) = a\n")
    assert X.main([str(f)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_suspended_unitor_has_the_suspended_type(tmp_path, capsys):
    # the composite in the unitor's type is suspended with the term
    f = tmp_path / "a.catt"
    f.write_text(
        "def comp1 [f,g] = comp\n"
        "def unitor = coh [ x{f}y : comp1(id(x), f) -> f ]\n"
        "def chk x{a{m}b}y : comp1(id(a), m) -> m = S(unitor)(m)\n"
    )
    assert X.main([str(f)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "defined chk"


@pytest.mark.parametrize(
    "term, out",
    [("comp<* | {f}>", "normal form: f\n"), ("id(* | x)", "normal form: id<x>\n")],
    ids=["label", "sub"],
)
def test_base_type_part_normalises(tmp_path, capsys, term, out):
    f = tmp_path / "a.catt"
    f.write_text(f"normalise {term} in x{{f}}y\n")
    assert X.main(["--su", str(f)]) == 0
    assert capsys.readouterr().out.startswith(out)


# each checks a branch of the checker that the shipped files do not reach;
# the file first defines v over (x : *), (y : *), (f : x -> y)
CHECKER_CASES = [
    ("def a1 x{f}y : * | x -> y = f", 0, "defined a1"),
    ("def a2 x{f{a}g}y : (x -> y) | f -> g = a", 0, "defined a2"),
    ("normalise comp<(x -> y) | {a}> in x{f{a}g}y", 0, "of type: f -> g"),
    ("normalise id in x{f}y", 0, "normal form: id<{f}>"),
    ("normalise x in x{f}y", 0, "of type: *"),
    # unnamed cells written `_` in a tree context
    ("normalise comp in _{f}_", 0, "in context: p0{f}p1"),
    ("def u = coh [ _{f}_ : f -> f ]", 0, "defined u"),
    (
        "def r x{f{a}g}y : (x -> x) | f -> g = a",
        1,
        "the endpoints do not have the annotated type",
    ),
    (
        "normalise v(x -> y | x, y, f) in (x : *), (y : *), (f : x -> y)",
        1,
        "the type part does not match the arguments",
    ),
    (
        "normalise comp<* | {a}> in x{f{a}g}y",
        1,
        "the type part does not match the labelling",
    ),
    ("normalise v<{f}> in x{f}y", 1, "labelling arguments need a tree context"),
    (
        "normalise v(x, x, f) in (x : *), (y : *), (f : x -> y)",
        1,
        "argument 2 has the wrong type",
    ),
    ("normalise comp(f) in x{f}y", 1, "cannot infer the shape of a bare composite"),
    ("normalise _(f) in x{f}y", 1, "cannot infer a hole"),
    (
        "normalise comp[x, f] in x{f}y",
        1,
        "a branch argument has a type of the wrong dimension",
    ),
    (
        "normalise comp[f, a] in x{f{a}g}y",
        1,
        "the branch arguments live over different types",
    ),
    ("normalise id in [f, g]", 1, "the term lives over a different context"),
    ("normalise x in (x : *), (x : *)", 1, "duplicate variable 'x'"),
    ("def d = comp[f, g]", 1, "this term needs a context to be checked in"),
    (
        "normalise coh [ x{f}y : * ] in x{f}y",
        1,
        "a coherence needs an arrow type",
    ),
    ("normalise comp in (x : *)", 1, "a bare composite needs a tree context"),
    ("normalise _ in x{f}y", 1, "a hole is not allowed here"),
    ("normalise x in (x : _)", 1, "a type hole is not allowed here"),
    # a list-context term over a tree context
    ("normalise v in x{f}y", 1, "the term lives over a different context"),
    (
        "assert x = f in (x : *), (y : *), (f : x -> y)",
        1,
        "the two sides have different types",
    ),
]


@pytest.mark.parametrize("cmd, code, line", CHECKER_CASES)
def test_checker_branches(tmp_path, capsys, cmd, code, line):
    f = tmp_path / "a.catt"
    f.write_text(f"def v (x : *), (y : *), (f : x -> y) = f\n{cmd}\n")
    assert X.main([str(f)]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.err == f"error: {line}\n"
    else:
        assert line in captured.out.splitlines()


@pytest.mark.parametrize(
    "ctx, term",
    [
        ("[f, g]", "comp[f, g]"),
        ("[f, g, h]", "comp[f, g, h]"),
        ("[[a, b]]", "comp[[a, b]]"),
        ("[p1, f]", "comp[p1, f]"),
    ],
)
def test_unnamed_cells_are_named_in_the_output(ctx, term):
    # the output names every cell it shows, and reads back in the context
    # it prints
    state = X.SessionState()
    (cmd,) = R.parse(f"normalise {term} in {ctx}\n")
    nf_line, ty_line, ctx_line = X.run_command(state, cmd)
    shown = nf_line.removeprefix("normal form: ")
    shown_ty = ty_line.removeprefix("of type: ")
    shown_ctx = ctx_line.removeprefix("in context: ")
    ck = Checker(state.sig)
    old = ck.elab_ctx(cmd.ctx)
    _, ty, value = ck.elab(old, cmd.term)
    new = ck.elab_ctx(R.parse_ctx(shown_ctx))
    assert new.tree == old.tree
    _, ty2, value2 = ck.elab(new, R.parse_term(shown))
    assert (value2, ty2) == (value, ty)
    assert ck.check_ty(new, R.parse_type(shown_ty))[1] == ty
    (again,) = R.parse(f"normalise {shown} in {shown_ctx}\n")
    assert X.run_command(state, again) == [nf_line, ty_line]


def test_colliding_fallback_names_suffix_the_later_cell():
    # the path (1, 0) and the 0-cell (10,) both print as p10; unnamed cells
    # are named in entry order, the order of the realised context, where
    # (1, 0) comes first, so the 0-cell takes the suffix
    ctx = "[a, [b, c], d, e, f, g, h, i, j, k]"
    state = X.SessionState(keep_implicits=True)
    (cmd,) = R.parse(f"normalise comp{ctx} in {ctx}\n")
    nf_line, ty_line, ctx_line = X.run_command(state, cmd)
    cells = "p0{a}p1{p10{b}p11{c}p12}p2{d}p3{e}p4{f}p5{g}p6{h}p7{i}p8{j}p9{k}p10_"
    assert nf_line == f"normal form: comp<{cells}>"
    assert ctx_line == f"in context: {cells}"
    shown = nf_line.removeprefix("normal form: ")
    shown_ty = ty_line.removeprefix("of type: ")
    ck = Checker(state.sig)
    old = ck.elab_ctx(cmd.ctx)
    _, ty, value = ck.elab(old, cmd.term)
    new = ck.elab_ctx(R.parse_ctx(cells))
    assert new.tree == old.tree
    assert ck.elab(new, R.parse_term(shown))[1:] == (ty, value)
    assert ck.check_ty(new, R.parse_type(shown_ty))[1] == ty
    (again,) = R.parse(f"normalise {shown} in {cells}\n")
    assert X.run_command(state, again) == [nf_line, ty_line]


def test_deep_nesting_gives_one_error_line(tmp_path):
    f = tmp_path / "deep.catt"
    deep = "comp[" * 1000 + "f" + ", g]" * 1000
    f.write_text(f"normalise {deep} in [f, g]\n")
    code = "import sys\nfrom cattkernel import cli\nsys.exit(cli.main(sys.argv[1:]))"
    proc = run_python(code, str(f))
    assert proc.returncode == 1
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def run_long_left_nested_composite(tmp_path, flags) -> subprocess.CompletedProcess:
    """Normalise a left-nested composite of 150 arguments through the CLI
    in a fresh interpreter, at the default recursion limit."""
    term = "f0"
    for i in range(1, 150):
        term = f"comp[{term}, f{i}]"
    ctx = "[" + ", ".join(f"f{i}" for i in range(150)) + "]"
    f = tmp_path / "long.catt"
    f.write_text(f"normalise {term} in {ctx}\n")
    code = "import sys\nfrom cattkernel import cli\nsys.exit(cli.main(sys.argv[1:]))"
    return run_python(code, *flags, str(f))


@pytest.mark.parametrize("flags", [[], ["--su"]], ids=["weak", "su"])
def test_long_left_nested_composite_normalises(tmp_path, flags):
    # the normal form nests its composites about 150 deep, and printing it
    # must fit under the default recursion limit
    proc = run_long_left_nested_composite(tmp_path, flags)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("normal form: comp<{comp<") and proc.stderr == ""


@pytest.mark.parametrize(
    "flags", [["--su", "--oracle"], ["--sua", "--oracle"]], ids=["su", "sua"]
)
def test_long_left_nested_composite_normalises_under_the_oracle(tmp_path, flags):
    # flattening the term for the oracle recurses once per nesting level of
    # the term, through one map over each labelling's entries
    proc = run_long_left_nested_composite(tmp_path, flags)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert any(line.startswith("oracle: ") for line in proc.stdout.splitlines())


def test_long_left_nested_application_normalises(tmp_path):
    # each argument of comp1(…) is parsed once; parsing the first argument
    # again at every level took hours at this depth
    term = "f0"
    for i in range(1, 41):
        term = f"comp1({term}, f{i})"
    ctx = "[" + ", ".join(f"f{i}" for i in range(41)) + "]"
    f = tmp_path / "applied.catt"
    f.write_text(f"def comp1 [f,g] = comp\nnormalise {term} in {ctx}\n")
    code = "import sys\nfrom cattkernel import cli\nsys.exit(cli.main(sys.argv[1:]))"
    proc = run_python(code, "--su", str(f), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1].startswith("normal form: comp<")
    assert proc.stderr == ""


def test_closed_stdout_is_not_an_internal_error(tmp_path):
    # the output outgrows the pipe's buffer, so the program is still
    # writing when the reader closes the pipe after the first line, as
    # `catt-kernel FILE | head -1` does
    f = tmp_path / "many.catt"
    f.write_text(
        "def comp1 [f,g] = comp\n"
        + "normalise comp1(comp1(f, g), h) in [f, g, h]\n" * 2000
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "cattkernel.cli", str(f)],
        cwd=ROOT, env=src_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        assert proc.stdout.readline() == b"defined comp1\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    finally:
        proc.kill()
        proc.stdout.close()
        proc.stderr.close()
    assert err == b""


def test_unexpected_exception_reported_as_internal_error(tmp_path, monkeypatch, capsys):
    def broken(*args):
        raise ValueError("boom")

    monkeypatch.setattr(X, "run_command", broken)
    f = tmp_path / "a.catt"
    f.write_text("def one [f] = comp\n")
    assert X.main([str(f)]) == 1
    assert capsys.readouterr().err == "internal error: ValueError: boom\n"


def test_missing_file_gives_exit_code_one(capsys):
    assert X.main(["no-such-file.catt"]) == 1
    assert "cannot open" in capsys.readouterr().err


def test_shipped_file_loads_under_every_preset(capsys):
    for flags in ([], ["--su"], ["--sua"]):
        assert X.main(flags + [str(MONOIDAL)]) == 0
        out = capsys.readouterr().out
        assert out.count("assertion holds") == 2


# ---------------------------------------------------------------------------
# imports


def test_import_resolves_relative_to_importing_file(tmp_path, capsys):
    lib_dir = tmp_path / "lib"
    lib_dir.mkdir()
    (lib_dir / "base.catt").write_text("def one [f] = comp\n")
    main_file = lib_dir / "main.catt"
    main_file.write_text("import base.catt\nsize one(f) in [f]\n")
    assert X.main([str(main_file)]) == 0
    assert "size: 1" in capsys.readouterr().out


def test_import_falls_back_to_working_directory(tmp_path, monkeypatch, capsys):
    (tmp_path / "base.catt").write_text("def one [f] = comp\n")
    other = tmp_path / "sub"
    other.mkdir()
    main_file = other / "main.catt"
    main_file.write_text("import base.catt\n")
    monkeypatch.chdir(tmp_path)
    assert X.main([str(main_file)]) == 0


def test_import_cycle_detected(tmp_path):
    a = tmp_path / "a.catt"
    b = tmp_path / "b.catt"
    a.write_text("import b.catt\n")
    b.write_text("import a.catt\n")
    state = X.SessionState()
    with pytest.raises(CheckError, match="cycle"):
        X.run_import(state, str(a), None)


def test_missing_import_reported(tmp_path):
    state = X.SessionState()
    with pytest.raises(CheckError, match="cannot find"):
        X.run_import(state, "nope.catt", tmp_path)


def test_running_a_file_equals_importing_it():
    st_run = X.SessionState()
    X.run_import(st_run, str(MONOIDAL), None)
    st_file = X.SessionState()
    text = MONOIDAL.read_text()
    for cmd in R.parse(text):
        X.run_command(st_file, cmd, MONOIDAL.parent)
    assert st_run.sig.entries.keys() == st_file.sig.entries.keys()
    for k in st_run.sig.entries:
        assert st_run.sig.entries[k] == st_file.sig.entries[k]


# ---------------------------------------------------------------------------
# the interactive loop


def test_repl_reports_errors_and_continues(monkeypatch, capsys):
    lines = iter(["def one [f] = comp", "def bad (x : *) = y", ""])

    def fake_input(prompt=""):
        try:
            return next(lines)
        except StopIteration:
            raise EOFError

    monkeypatch.setattr("builtins.input", fake_input)
    state = X.SessionState()
    assert X.repl(state) == 1
    captured = capsys.readouterr()
    assert "defined one" in captured.out
    assert "error" in captured.err
    assert "one" in state.sig.entries
