#!/usr/bin/env python3
"""prodsyn determinism analyzer.

Statically enforces the pipeline's determinism contract — bit-identical
products/stats for any thread count — at its two structural weak points:
iteration order of hash containers in merge code, and shared mutable
state inside parallel bodies. Complements lint_prodsyn.py (R1-R6) with:

  R7  unordered-iteration   Range-for over a std::unordered_map /
                            std::unordered_set in sequential-merge code
                            (src/pipeline, src/matching, src/snapshot):
                            iteration order
                            is hash-seed- and load-factor-dependent, so
                            anything order-sensitive built from it breaks
                            the bit-identical contract. Sites whose loop
                            body is genuinely commutative annotate the
                            loop (same line or the line above) with
                            `// lint: order-independent`.
  R8  shared-capture        A lambda with by-reference captures handed to
                            a parallel entry point (ParallelFor, or the
                            pool-internal Submit): by-ref state shared across
                            workers is a data race unless every write is
                            per-index ("sharded"), atomic, or
                            mutex-guarded. Bodies that follow the
                            per-index-slot discipline annotate the lambda
                            with `// lint: sharded`.
  R9  float-accumulation    `x += ...` on a float/double declared outside
                            a parallel body, inside one: even with a
                            mutex, floating-point addition is not
                            associative, so the total depends on chunk
                            boundaries. The sanctioned pattern is
                            per-chunk slots reduced sequentially — for a
                            float container declared outside the body
                            (std::vector<double>, std::array<double,N>,
                            `double name[N]`), `name[expr] +=` is fine
                            when `expr` involves an identifier (the
                            chunk/row index shards the writes), and
                            flagged when the index is a bare constant
                            (`name[0] +=`: every chunk races on one slot
                            and the sum is chunk-order-dependent, exactly
                            like a scalar). No opt-out: there is no
                            thread-count-invariant way to accumulate
                            shared floats.

Two analysis modes, selected with --mode (default: auto):

  ast     libclang cursor walk — precise range-for operand types for R7.
          Requires the clang python bindings; R8/R9 still use the token
          scan (libclang's python API does not expose lambda captures).
  regex   token-level scan over comment/string-stripped sources (shares
          lint_prodsyn.py's stripper). No dependencies; what CI runs.
  auto    ast when `import clang.cindex` works, else regex.

Scope: R7 applies under src/pipeline/ and src/matching/ (the
sequential-merge paths; see docs/ARCHITECTURE.md) — and to any analyzed
file *outside* src/ (so rule fixtures exercise it). R8/R9 apply
everywhere. --all-rules lifts the R7 path restriction.

Usage: tools/analyze_determinism.py [paths...] [--json OUT] [--mode M]
       (default paths: src)
Exit status: 0 when clean, 1 when findings were printed, 2 on bad usage.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from lint_prodsyn import strip_comments_and_strings  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parent.parent

CC_SUFFIXES = {".cc", ".cpp", ".h", ".hpp"}

# Parallel entry points: a callable argument runs on pool worker threads.
# ParallelFor is the pool's one public entry point; Submit is its
# private task hand-off inside thread_pool.cc.
ENTRY_POINTS = ("ParallelFor", "Submit")

# Directories whose sequential merges the bit-identical contract runs
# through; R7 (unordered-iteration) applies here. src/snapshot/ is
# included because the codec serializes learned state whose byte layout
# IS the contract: an unordered iteration in an encoder would make the
# snapshot's bytes (and thus the warm-start state) hash-seed-dependent.
MERGE_DIRS = ("src/pipeline/", "src/matching/", "src/snapshot/")

OPT_OUT_R7 = "lint: order-independent"
OPT_OUT_R8 = "lint: sharded"

RE_RANGE_FOR = re.compile(r"\bfor\s*\(")
RE_UNORDERED_DECL = re.compile(r"\bunordered_(?:map|set)\s*<")
RE_IDENT = re.compile(r"[A-Za-z_]\w*")
RE_FLOAT_DECL = re.compile(
    r"(?:^|[^\w])(?:double|float)\s+(\w+)\s*(?:=|\{|;|\()")
# Containers of floats declared outside a parallel body: vector/array of
# double/float, and C arrays (`double name[N]`). Element writes through an
# identifier-bearing index are the sanctioned per-chunk-slot pattern;
# writes through a constant index are a shared accumulator in disguise.
RE_FLOAT_CONTAINER_DECL = re.compile(
    r"(?:^|[^\w:])(?:std\s*::\s*)?(?:vector|array)\s*<\s*(?:std\s*::\s*)?"
    r"(?:double|float)\b[^>;]*>\s*(\w+)"
    r"|(?:^|[^\w])(?:double|float)\s+(\w+)\s*\[")
RE_NUMERIC_LITERAL = re.compile(r"\b\d[\w.]*")
RE_ENTRY_CALL = re.compile(
    r"(?:^|[^\w.])(?:[\w.>-]+(?:->|\.))?(" + "|".join(ENTRY_POINTS) + r")\s*\(")


class Finding:
    def __init__(self, path: Path, line: int, rule: str, msg: str) -> None:
        self.path = path
        self.line = line
        self.rule = rule
        self.msg = msg

    def render(self) -> str:
        try:
            rel = self.path.relative_to(REPO_ROOT)
        except ValueError:
            rel = self.path
        return f"{rel}:{self.line}: [{self.rule}] {self.msg}"

    def as_json(self) -> dict:
        try:
            rel = str(self.path.relative_to(REPO_ROOT))
        except ValueError:
            rel = str(self.path)
        return {"file": rel, "line": self.line, "rule": self.rule,
                "message": self.msg}


def match_paren(text: str, open_idx: int,
                open_ch: str = "(", close_ch: str = ")") -> int:
    """Index just past the bracket matching text[open_idx]; -1 if none."""
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == open_ch:
            depth += 1
        elif text[i] == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


def line_of(text: str, idx: int) -> int:
    return text.count("\n", 0, idx) + 1


def has_opt_out(raw_lines: list[str], line: int, marker: str) -> bool:
    """True when `marker` appears on `line` (1-based) or the line above."""
    for ln in (line, line - 1):
        if 1 <= ln <= len(raw_lines) and marker in raw_lines[ln - 1]:
            return True
    return False


def sibling_header_text(path: Path) -> str:
    """Stripped text of the .cc file's own header (member decls live there)."""
    if path.suffix not in {".cc", ".cpp"}:
        return ""
    for suffix in (".h", ".hpp"):
        header = path.with_suffix(suffix)
        if header.is_file():
            return strip_comments_and_strings(
                header.read_text(encoding="utf-8", errors="replace"))
    return ""


def unordered_names(code: str) -> set[str]:
    """Names declared with a type mentioning unordered_map/unordered_set.

    Catches direct declarations, members, and containers *of* unordered
    containers (`std::vector<std::unordered_map<...>> shards`): in every
    case the declared name is the first identifier after the declaration's
    template argument list closes.
    """
    names: set[str] = set()
    for m in RE_UNORDERED_DECL.finditer(code):
        # Walk to the close of the OUTERMOST template bracket: back up to
        # the start of the declaration's type token, then bracket-match.
        start = m.start()
        while start > 0 and (code[start - 1].isalnum()
                             or code[start - 1] in ":_<> \t\n"):
            if code[start - 1] in ";{}":
                break
            start -= 1
        first_open = code.find("<", start)
        if first_open < 0:
            continue
        end = match_paren(code, first_open, "<", ">")
        if end < 0:
            continue
        tail = code[end:end + 256]
        ident = RE_IDENT.search(tail)
        if ident and not code[end:end + ident.start()].strip(" \t\n&*"):
            # Only identifiers directly after the type (modulo refs/ptrs):
            # `unordered_map<K, V> name` — not `unordered_map<K, V>::iterator`.
            if "::" not in code[end:end + ident.start()]:
                names.add(ident.group(0))
    return names


def float_names(code: str) -> set[str]:
    return {m.group(1) for m in RE_FLOAT_DECL.finditer(code)}


def float_container_names(code: str) -> set[str]:
    return {m.group(1) or m.group(2)
            for m in RE_FLOAT_CONTAINER_DECL.finditer(code)}


def index_is_constant(index_expr: str) -> bool:
    """True when a subscript expression carries no identifier — a literal
    (or literal arithmetic) slot shared by every chunk."""
    return RE_IDENT.search(RE_NUMERIC_LITERAL.sub("", index_expr)) is None


def lambda_captures(code: str, lbracket: int) -> list[str] | None:
    """Capture list of a lambda whose `[` is at lbracket, or None if this
    bracket is not a lambda introducer (e.g. a subscript)."""
    end = match_paren(code, lbracket, "[", "]")
    if end < 0:
        return None
    after = code[end:end + 64].lstrip()
    if not after.startswith(("(", "{", "mutable", "->", "noexcept")):
        return None  # subscript or attribute, not a lambda
    inner = code[lbracket + 1:end - 1]
    return [c.strip() for c in inner.split(",") if c.strip()]


def lambda_body_span(code: str, lbracket: int) -> tuple[int, int] | None:
    """(open, close) indices of the lambda's brace body, or None."""
    end = match_paren(code, lbracket, "[", "]")
    if end < 0:
        return None
    i = end
    if code[i:].lstrip().startswith("("):
        params_open = code.find("(", i)
        i = match_paren(code, params_open)
        if i < 0:
            return None
    body_open = code.find("{", i)
    if body_open < 0:
        return None
    body_close = match_paren(code, body_open, "{", "}")
    if body_close < 0:
        return None
    return body_open, body_close


def named_lambdas(code: str) -> dict[str, int]:
    """`auto name = [...]` declarations: name -> index of the `[`."""
    out: dict[str, int] = {}
    for m in re.finditer(r"\b(?:const\s+)?auto\s+(\w+)\s*=\s*\[", code):
        out[m.group(1)] = m.end() - 1
    return out


class Analyzer:
    def __init__(self, all_rules: bool) -> None:
        self.all_rules = all_rules
        self.findings: list[Finding] = []

    # ---- R7 ----------------------------------------------------------

    def r7_applies(self, path: Path) -> bool:
        if self.all_rules:
            return True
        try:
            rel = str(path.relative_to(REPO_ROOT))
        except ValueError:
            return True  # explicit out-of-repo paths (fixtures): all rules
        if not rel.startswith("src/"):
            return True  # fixtures/tests handed in explicitly
        return rel.startswith(MERGE_DIRS)

    def check_unordered_iteration(self, path: Path, code: str,
                                  raw_lines: list[str],
                                  extra_decls: str) -> None:
        unordered = unordered_names(code) | unordered_names(extra_decls)
        if not unordered:
            return
        for m in RE_RANGE_FOR.finditer(code):
            close = match_paren(code, m.end() - 1)
            if close < 0:
                continue
            head = code[m.end():close - 1]
            if ":" not in head.replace("::", ""):
                continue  # classic for, not range-for
            # The range expression: after the first top-level colon.
            depth = 0
            colon = -1
            i = 0
            while i < len(head):
                ch = head[i]
                if ch in "([{<":
                    depth += 1
                elif ch in ")]}>":
                    depth -= 1
                elif ch == ":" and depth == 0:
                    if i + 1 < len(head) and head[i + 1] == ":":
                        i += 2
                        continue
                    colon = i
                    break
                i += 1
            if colon < 0:
                continue
            range_expr = head[colon + 1:]
            idents = set(RE_IDENT.findall(range_expr))
            hits = sorted(idents & unordered)
            if not hits:
                continue
            line = line_of(code, m.start())
            if has_opt_out(raw_lines, line, OPT_OUT_R7):
                continue
            self.findings.append(Finding(
                path, line, "unordered-iteration",
                f"range-for over unordered container `{hits[0]}` in "
                "sequential-merge code: iteration order is not "
                "deterministic; iterate a sorted view or annotate "
                f"`// {OPT_OUT_R7}` if the body is commutative"))

    # ---- R8 / R9 -----------------------------------------------------

    def check_parallel_bodies(self, path: Path, code: str,
                              raw_lines: list[str]) -> None:
        floats = float_names(code)
        containers = float_container_names(code)
        named = named_lambdas(code)
        for m in RE_ENTRY_CALL.finditer(code):
            entry = m.group(1)
            call_open = m.end() - 1
            call_close = match_paren(code, call_open)
            if call_close < 0:
                continue
            args = code[call_open + 1:call_close - 1]
            # Lambdas handed to this entry point: inline `[...](...){...}`
            # or an `auto name = [...]` declared earlier in the file.
            lbrackets: list[int] = []
            for lm in re.finditer(r"\[", args):
                idx = call_open + 1 + lm.start()
                if lambda_captures(code, idx) is not None:
                    lbrackets.append(idx)
            if not lbrackets:
                for ident in RE_IDENT.findall(args):
                    if ident in named:
                        lbrackets.append(named[ident])
            call_line = line_of(code, m.start())
            for lb in lbrackets:
                self.check_one_lambda(path, code, raw_lines, entry, lb,
                                      call_line, floats, containers)

    def check_one_lambda(self, path: Path, code: str, raw_lines: list[str],
                         entry: str, lbracket: int, call_line: int,
                         floats: set[str], containers: set[str]) -> None:
        captures = lambda_captures(code, lbracket) or []
        by_ref = [c for c in captures
                  if c.startswith("&") or c == "&"]
        lambda_line = line_of(code, lbracket)
        exempt = (has_opt_out(raw_lines, lambda_line, OPT_OUT_R8)
                  or has_opt_out(raw_lines, call_line, OPT_OUT_R8))
        if by_ref and not exempt:
            what = "default by-reference capture `[&]`" if "&" in captures \
                else f"by-reference capture `{by_ref[0]}`"
            self.findings.append(Finding(
                path, lambda_line, "shared-capture",
                f"{what} in a lambda passed to {entry}: state shared "
                "across workers must be per-index, atomic, or "
                f"mutex-guarded — annotate `// {OPT_OUT_R8}` once it is"))
        # R9 applies even to sharded-exempt bodies: a float accumulator
        # is order-sensitive no matter how well the writes are guarded.
        span = lambda_body_span(code, lbracket)
        if span is None or not (floats or containers):
            return
        body = code[span[0]:span[1]]
        body_floats = float_names(body)  # locals shadow the outer decls
        for acc in sorted(floats - body_floats):
            for am in re.finditer(r"(?:^|[^\w\].])(" + re.escape(acc)
                                  + r")\s*\+=", body):
                line = line_of(code, span[0] + am.start(1))
                self.findings.append(Finding(
                    path, line, "float-accumulation",
                    f"floating-point accumulation `{acc} +=` inside a "
                    f"{entry} body: FP addition is not associative, so "
                    "the sum depends on chunk boundaries; accumulate "
                    "into per-index slots and reduce sequentially"))
        # Float containers: `slots[chunk_index] +=` is the sanctioned
        # per-chunk-slot pattern (each chunk owns its own slot, the caller
        # reduces sequentially afterwards) — but a CONSTANT subscript is a
        # single slot every chunk races on, a scalar accumulator wearing a
        # container costume.
        body_containers = float_container_names(body)
        for acc in sorted(containers - body_containers):
            for am in re.finditer(r"(?:^|[^\w\].])(" + re.escape(acc)
                                  + r")\s*\[", body):
                sub_open = body.index("[", am.end(1))
                sub_close = match_paren(body, sub_open, "[", "]")
                if sub_close < 0:
                    continue
                if not body[sub_close:].lstrip().startswith("+="):
                    continue
                index_expr = body[sub_open + 1:sub_close - 1]
                if not index_is_constant(index_expr):
                    continue  # identifier-bearing index: per-chunk slot
                line = line_of(code, span[0] + am.start(1))
                self.findings.append(Finding(
                    path, line, "float-accumulation",
                    f"floating-point accumulation `{acc}[{index_expr.strip()}]"
                    f" +=` inside a {entry} body: a constant subscript is "
                    "one slot shared by every chunk, so the sum depends on "
                    "chunk boundaries; index the slot by the chunk (or row) "
                    "so each chunk accumulates privately, then reduce "
                    "sequentially"))

    # ---- driver ------------------------------------------------------

    def analyze_file(self, path: Path) -> None:
        text = path.read_text(encoding="utf-8", errors="replace")
        raw_lines = text.splitlines()
        code = strip_comments_and_strings(text)
        if self.r7_applies(path):
            self.check_unordered_iteration(path, code, raw_lines,
                                           sibling_header_text(path))
        self.check_parallel_bodies(path, code, raw_lines)


def try_ast_mode() -> "object | None":
    """The libclang cursor-walk refinement for R7, if bindings exist."""
    try:
        import clang.cindex as cindex  # type: ignore

        index = cindex.Index.create()
        return (cindex, index)
    except Exception:
        return None


def ast_unordered_iterations(cindex, index, path: Path) -> "set[int] | None":
    """Line numbers of range-fors over unordered containers, via the AST.

    Returns None on any parse trouble so the caller falls back to the
    token scan — the analyzer must degrade, never crash, on machines
    without a working libclang.
    """
    try:
        tu = index.parse(
            str(path),
            args=["-std=c++20", "-I", str(REPO_ROOT)],
            options=cindex.TranslationUnit.PARSE_SKIP_FUNCTION_BODIES * 0)
        lines: set[int] = set()

        def walk(cursor):
            if cursor.kind == cindex.CursorKind.CXX_FOR_RANGE_STMT:
                for child in cursor.get_children():
                    spelling = child.type.spelling
                    if ("unordered_map" in spelling
                            or "unordered_set" in spelling):
                        if cursor.location.file and \
                                Path(str(cursor.location.file)) == path:
                            lines.add(cursor.location.line)
                        break
            for child in cursor.get_children():
                walk(child)

        walk(tu.cursor)
        return lines
    except Exception:
        return None


def collect_files(args: list[str]) -> list[Path] | None:
    roots = []
    for a in args:
        p = Path(a)
        if not p.is_absolute():
            p = REPO_ROOT / p
        if not p.exists():
            print(f"analyze_determinism: no such path: {a}", file=sys.stderr)
            return None
        roots.append(p)
    files: list[Path] = []
    for root in roots:
        if root.is_file():
            files.append(root)
        else:
            # lint_fixtures holds deliberately-violating sources; the
            # fixture suite (tools/test_lint_rules.py) analyzes staged
            # copies of them, the live-tree walk must not.
            files.extend(p for p in sorted(root.rglob("*"))
                         if p.suffix in CC_SUFFIXES and p.is_file()
                         and "lint_fixtures" not in p.parts)
    return files


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="analyze_determinism.py",
        description="prodsyn determinism rules R7-R9 (see module docstring)")
    parser.add_argument("paths", nargs="*", default=["src"])
    parser.add_argument("--json", metavar="OUT",
                        help="also write findings as a JSON array to OUT")
    parser.add_argument("--mode", choices=["auto", "ast", "regex"],
                        default="auto")
    parser.add_argument("--all-rules", action="store_true",
                        help="apply R7 outside src/pipeline and src/matching")
    opts = parser.parse_args(argv[1:])

    files = collect_files(opts.paths or ["src"])
    if files is None:
        return 2

    ast = None
    if opts.mode in ("auto", "ast"):
        ast = try_ast_mode()
        if ast is None and opts.mode == "ast":
            print("analyze_determinism: clang python bindings unavailable; "
                  "--mode=ast cannot run (use auto or regex)",
                  file=sys.stderr)
            return 2

    analyzer = Analyzer(all_rules=opts.all_rules)
    mode = "regex"
    for f in files:
        if ast is not None and analyzer.r7_applies(f):
            # AST refinement: replace the token-scan R7 result for this
            # file when libclang parses it cleanly.
            lines = ast_unordered_iterations(ast[0], ast[1], f)
            if lines is not None:
                mode = "ast"
                text = f.read_text(encoding="utf-8", errors="replace")
                raw_lines = text.splitlines()
                for line in sorted(lines):
                    if has_opt_out(raw_lines, line, OPT_OUT_R7):
                        continue
                    analyzer.findings.append(Finding(
                        f, line, "unordered-iteration",
                        "range-for over unordered container in "
                        "sequential-merge code (AST); iterate a sorted "
                        f"view or annotate `// {OPT_OUT_R7}`"))
                code = strip_comments_and_strings(text)
                analyzer.check_parallel_bodies(f, code, raw_lines)
                continue
        analyzer.analyze_file(f)

    for finding in analyzer.findings:
        print(finding.render())
    if opts.json:
        Path(opts.json).write_text(
            json.dumps([f.as_json() for f in analyzer.findings], indent=2)
            + "\n", encoding="utf-8")
    print(f"analyze_determinism[{mode}]: {len(files)} files, "
          f"{len(analyzer.findings)} findings", file=sys.stderr)
    return 1 if analyzer.findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
