"""Command execution, file loading, the REPL, and the command line.

A failing command reports an error and leaves the signature unchanged;
running a file is the same as importing it into a fresh session.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from typing import Optional

from . import core as C
from . import nbe as N
from . import surface as R
from . import trees as T
from .nbe import EvalConfig
from .surface import ParseError
from .typecheck import CheckError, Checker, OperationSet, SigEntry, Signature, TreeCtx


class SessionState:
    def __init__(
        self,
        sig: Optional[Signature] = None,
        keep_implicits: bool = False,
        oracle_trace: bool = False,
        import_stack: tuple = (),
    ):
        self.sig = Signature() if sig is None else sig
        self.keep_implicits = keep_implicits
        self.oracle_trace = oracle_trace
        self.import_stack = import_stack


def run_command(
    state: SessionState, cmd: R.Command, base_dir: Optional[Path] = None
) -> list[str]:
    ck = Checker(state.sig)
    if isinstance(cmd, R.DefCmd):
        if cmd.ctx is None:
            ctx, term, ty = ck.infer(cmd.term)
        else:
            ctx = ck.elab_ctx(cmd.ctx)
            term, ty = ck.check(ctx, cmd.term)
            if cmd.ty is not None:
                _, want = ck.check_ty(ctx, cmd.ty)
                if ty != want:
                    raise CheckError(
                        f"{cmd.name} does not have the stated type", cmd.ty.span
                    )
        state.sig.entries[cmd.name] = SigEntry(ctx, term, ty)
        return [f"defined {cmd.name}"]
    if isinstance(cmd, R.NormaliseCmd):
        ctx = ck.elab_ctx(cmd.ctx)
        term, ty, nf = ck.elab(ctx, cmd.term)
        names = C.Names(ctx.names)
        shown = R.pretty(
            C.to_raw(N.quote_tm(nf), names, state.keep_implicits)
        )
        shown_ty = R.pretty(
            C.to_raw(N.quote_ty(ty), names, state.keep_implicits)
        )
        out = [f"normal form: {shown}", f"of type: {shown_ty}"]
        if names.fallback:
            # name the unnamed cells the output shows, so it reads back
            cells = tuple(map(names, range(T.ctx_size(ctx.tree))))
            shown_ctx = R.pretty_tree(R.RawTree(ctx.tree, cells))
            out.append(f"in context: {shown_ctx}")
        if state.oracle_trace:
            out.extend(_oracle_trace(state, ctx, term))
        return out
    if isinstance(cmd, R.AssertCmd):
        ctx = ck.elab_ctx(cmd.ctx)
        _, lty, lhs = ck.elab(ctx, cmd.lhs)
        _, rty, rhs = ck.elab(ctx, cmd.rhs)
        if lty != rty:
            raise CheckError("the two sides have different types", cmd.span)
        if lhs != rhs:
            raise CheckError("the terms are not equal", cmd.span)
        return ["assertion holds"]
    if isinstance(cmd, R.SizeCmd):
        ctx = ck.elab_ctx(cmd.ctx)
        _, _, nf = ck.elab(ctx, cmd.term)
        return [f"size: {N.size_tm(nf)}"]
    if isinstance(cmd, R.ImportCmd):
        return run_import(state, cmd.path, base_dir)
    raise CheckError("unknown command", cmd.span)


# the oracle's rule set for each theory it validates; WEAK has no rules
ORACLE_RULES = {N.WEAK: None, N.SU: "su", N.SUA: "sua"}


def _oracle_trace(state: SessionState, ctx, term) -> list[str]:
    # the validation route loads only when a trace is asked for
    from . import flat as F
    from . import oracle as O

    amb = ctx.tree if isinstance(ctx, TreeCtx) else len(ctx)
    t = C.flatten_tm(term, amb)
    lines = [f"oracle: {F.show_tm(t)}"]
    name = ORACLE_RULES[state.sig.config]
    if name is None:
        return lines
    for st in O.first_steps(t, O.RuleSet(name)):
        lines.append(f"oracle: {F.show_tm(st.term)}  [{st.rule}]")
    return lines


def resolve_import(path: str, base_dir: Optional[Path]) -> Path:
    candidates = []
    if base_dir is not None:
        candidates.append(base_dir / path)
    candidates.append(Path.cwd() / path)
    for c in candidates:
        if c.is_file():
            return c.resolve()
    raise CheckError(f"cannot find {path!r}")


def run_import(
    state: SessionState, path: str, base_dir: Optional[Path]
) -> list[str]:
    resolved = resolve_import(path, base_dir)
    if str(resolved) in state.import_stack:
        raise CheckError(f"import cycle through {path!r}")
    text = resolved.read_text()
    cmds = R.parse(text, source=str(resolved))
    out = [f"importing {path}"]
    prev = state.import_stack
    state.import_stack = prev + (str(resolved),)
    try:
        for cmd in cmds:
            out.extend(run_command(state, cmd, resolved.parent))
    finally:
        state.import_stack = prev
    return out


# ---------------------------------------------------------------------------
# configuration flags


USAGE = """usage: catt-kernel [FLAGS] [FILE ...]

flags (applied left to right):
  --su                  strictly unital preset
  --sua                 strictly unital and associative preset
  --dr {on,off}         disc removal
  --ecr {on,off}        endo-coherence removal
  --insertion {none,id,full}
  --ops {regular,groupoidal}
  --keep-implicits      display all labelling arguments
  --oracle              print the small-step oracle's trace after each
                        normalise (weak, --su and --sua only)
"""


class UsageError(Exception):
    pass


class Options:
    def __init__(
        self,
        config: EvalConfig = N.WEAK,
        ops: OperationSet = OperationSet.REGULAR,
        keep_implicits: bool = False,
        oracle_trace: bool = False,
        files: tuple = (),
    ):
        self.config = config
        self.ops = ops
        self.keep_implicits = keep_implicits
        self.oracle_trace = oracle_trace
        self.files = files


def parse_args(argv: list[str]) -> Options:
    config = N.WEAK
    ops = OperationSet.REGULAR
    keep = False
    oracle = False
    files: list[str] = []
    i = 0

    def onoff(value: str) -> bool:
        if value not in ("on", "off"):
            raise UsageError(f"expected on or off, got {value!r}")
        return value == "on"

    while i < len(argv):
        arg = argv[i]
        if arg == "--su":
            config = N.SU
        elif arg == "--sua":
            config = N.SUA
        elif arg in ("--dr", "--ecr", "--insertion", "--ops"):
            if i + 1 >= len(argv):
                raise UsageError(f"{arg} needs a value")
            value = argv[i + 1]
            i += 1
            if arg == "--dr":
                config = EvalConfig(onoff(value), config.ecr, config.insertion)
            elif arg == "--ecr":
                config = EvalConfig(config.dr, onoff(value), config.insertion)
            elif arg == "--insertion":
                if value not in ("none", "id", "full"):
                    raise UsageError(f"bad insertion mode {value!r}")
                config = EvalConfig(config.dr, config.ecr, value)
            else:
                try:
                    ops = OperationSet(value)
                except ValueError:
                    raise UsageError(f"bad operation set {value!r}")
        elif arg == "--keep-implicits":
            keep = True
        elif arg == "--oracle":
            oracle = True
        elif arg in ("-h", "--help"):
            raise UsageError(USAGE)
        elif arg.startswith("-"):
            raise UsageError(f"unknown flag {arg!r}")
        else:
            files.append(arg)
        i += 1
    if oracle and config not in ORACLE_RULES:
        raise UsageError("--oracle needs the weak, --su or --sua preset")
    return Options(config, ops, keep, oracle, tuple(files))


def run_text(state: SessionState, text: str, source: Optional[str] = None):
    base = Path(source).parent if source else None
    for cmd in R.parse(text, source=source):
        for line in run_command(state, cmd, base):
            print(line)


def _reported(run) -> bool:
    """Call run(); report a failure as one line on stderr and return False."""
    try:
        run()
    except (ParseError, CheckError) as e:
        print(f"error: {e}", file=sys.stderr)
    except RecursionError:
        print("error: the input is nested too deeply", file=sys.stderr)
    except BrokenPipeError:
        raise  # the reader closed stdout: main stops quietly
    except Exception as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
    else:
        return True
    return False


def repl(state: SessionState) -> int:
    status = 0
    while True:
        try:
            line = input("catt> ")
        except EOFError:
            print()
            return status
        if line.strip() and not _reported(lambda: run_text(state, line)):
            status = 1


def main(argv: Optional[list[str]] = None) -> int:
    try:
        status = _main(sys.argv[1:] if argv is None else argv)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return status
    except BrokenPipeError:
        # The reader closed stdout, as `head` does: no fault of the input,
        # so no message.  Output still buffered would fail again at the
        # interpreter's final flush, so stdout now writes to devnull.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


def _main(argv: list[str]) -> int:
    try:
        opts = parse_args(argv)
    except UsageError as e:
        print(str(e), file=sys.stderr)
        return 2
    state = SessionState(
        sig=Signature(config=opts.config, ops=opts.ops),
        keep_implicits=opts.keep_implicits,
        oracle_trace=opts.oracle_trace,
    )
    if not opts.files:
        return repl(state)
    for f in opts.files:
        path = Path(f)
        if not path.is_file():
            print(f"error: cannot open {f!r}", file=sys.stderr)
            return 1
        if not _reported(lambda: run_text(state, path.read_text(), str(path))):
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
