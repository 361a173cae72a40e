"""Per-module extraction for the whole-program (FLOW) analysis pass.

The engine's parse of one file produces a **module summary**: every
function with its intrinsic effect sites, its outgoing call references
(still symbolic — resolution needs the whole project), its
seed-provenance sites, plus the module's imports, classes, registry
registrations and module-level generators.  Extraction reuses the
engine's parsed tree and suppression map, so each file is parsed and
tokenized exactly once per lint run.

Pragmas are honored at the *site*: an intrinsic effect whose line
carries ``# simlint: disable=DET001`` (or the matching FLOW id) is a
documented exception and is never recorded, so a sanctioned watchdog
read does not taint every entry point that reaches ``Machine.run``.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from repro.analysis.rules.base import dotted_name
from repro.analysis.rules.det import _NP_LEGACY, _WALL_CLOCK

__all__ = ["extract_module", "module_names", "ENTRY_DIRS"]

#: Directories whose modules hold sim-critical *entry points* for the
#: FLOW pass: the simulation packages the scoped DET rules cover, plus
#: ``core`` (closed-form math feeding every table) — per-line rules
#: stay out of ``core`` (wall clock there is legal in the runner), but
#: an entry point reaching an impure effect is not.
ENTRY_DIRS = frozenset(
    {"sim", "htm", "core", "workloads", "adversary", "faults", "distributions"}
)

#: Effect -> rule ids whose line-scoped suppression sanctions the site.
_SITE_SUPPRESS = {
    "wall-clock": frozenset({"DET001", "FLOW001"}),
    "ambient-rng": frozenset({"DET002", "DET003", "FLOW002"}),
    "unordered-iter": frozenset({"ORD001", "FLOW003"}),
    "global-mutation": frozenset({"FLOW004"}),
    "fs-write": frozenset({"ERR004", "FLOW005"}),
    "seed-provenance": frozenset({"DET003", "FLOW006"}),
    "rng-boundary": frozenset({"FLOW007"}),
}

_GEN_CTORS = frozenset({"default_rng", "SeedSequence", "Generator"})
_CLEAN_RNG_FNS = frozenset(
    {"seedseq_for", "stream_for", "spawn_streams", "ensure_rng"}
)
_AMBIENT_FNS = frozenset(
    {"os.getpid", "os.urandom", "uuid.uuid1", "uuid.uuid4", "id"}
)
_RNG_NAME = re.compile(r"rng|gen|stream|seedseq|seed", re.IGNORECASE)
#: distinctive write-method names.  Deliberately excludes the pathlib
#: names that collide with ordinary methods on project objects
#: (``touch`` is the LRU cache's recency bump, ``unlink`` a list op);
#: those writes are still caught via the ``os.*``/``shutil.*`` forms.
_FS_SUFFIXES = frozenset({"write_text", "write_bytes", "rmtree"})
_FS_FULL = frozenset(
    {
        "os.remove", "os.unlink", "os.rename", "os.replace", "os.makedirs",
        "os.rmdir", "os.truncate", "shutil.move", "shutil.copy",
        "shutil.copy2", "shutil.copyfile", "shutil.copytree",
    }
)
#: pool-dispatch call names: a lambda/closure handed to one of these
#: crosses a process boundary.
_DISPATCH = frozenset(
    {"starmap", "map", "imap", "imap_unordered", "map_async", "submit",
     "apply_async"}
)
_WRITE_MODES = re.compile(r"[wax+]")


def _suffixes(dotted: str) -> set[str]:
    parts = dotted.split(".")
    return {".".join(parts[i:]) for i in range(len(parts))}


def in_entry_scope(path: str) -> bool:
    """True when ``path`` lives under a sim-critical directory."""
    return bool(ENTRY_DIRS.intersection(path.split("/")))


class _ModuleScanner:
    """Walks one parsed module, producing the summary dict."""

    def __init__(
        self,
        path: str,
        module: str,
        tree: ast.Module,
        suppressions: dict[int, set[str] | None],
    ) -> None:
        self.path = path
        self.module = module
        self.tree = tree
        self.suppressions = suppressions
        self.imports: dict[str, str] = {}
        self.local_defs: set[str] = set()
        self.functions: dict[str, dict] = {}
        self.classes: dict[str, dict] = {}
        self.registered: list[dict] = []
        self.module_rng: list[dict] = []
        is_init = path.endswith("__init__.py")
        self.package = module if is_init else module.rpartition(".")[0]

    # -- imports ------------------------------------------------------
    def _collect_imports(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    self.imports[local] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    up = self.package.split(".") if self.package else []
                    up = up[: len(up) - (node.level - 1)] if node.level > 1 else up
                    base = ".".join(up + ([node.module] if node.module else []))
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.imports[local] = (
                        f"{base}.{alias.name}" if base else alias.name
                    )

    def _expand(self, dotted: str) -> str:
        root, sep, rest = dotted.partition(".")
        if root in self.imports:
            target = self.imports[root]
            return f"{target}.{rest}" if rest else target
        if root in self.local_defs:
            return f"{self.module}.{dotted}"
        return dotted

    def _suppressed(self, line: int, effect: str) -> bool:
        ids = self.suppressions.get(line, "missing")
        if ids is None:
            return True  # blanket disable
        if isinstance(ids, set):
            return bool(ids & _SITE_SUPPRESS[effect])
        return False

    # -- top-level walk -----------------------------------------------
    def run(self) -> dict:
        self._collect_imports()
        for node in self.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.local_defs.add(node.name)
            elif isinstance(node, ast.ClassDef):
                self.local_defs.add(node.name)
        for node in self.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._scan_function(node, prefix="", cls=None)
            elif isinstance(node, ast.ClassDef):
                self._scan_class(node)
            else:
                self._scan_module_stmt(node)
        return {
            "module": self.module,
            "path": self.path,
            "entry_scope": in_entry_scope(self.path),
            "imports": dict(sorted(self.imports.items())),
            "functions": self.functions,
            "classes": self.classes,
            "registered": self.registered,
            "module_rng": self.module_rng,
        }

    def _scan_module_stmt(self, node: ast.stmt) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                self._maybe_register(sub)
                dotted = dotted_name(sub.func)
                if dotted is None:
                    continue
                tail = self._expand(dotted).rsplit(".", 1)[-1]
                if tail in _GEN_CTORS and isinstance(node, (ast.Assign, ast.AnnAssign)):
                    line = sub.lineno
                    if not self._suppressed(line, "rng-boundary"):
                        target = node.targets[0] if isinstance(node, ast.Assign) else node.target
                        name = dotted_name(target) or "<anonymous>"
                        self.module_rng.append(
                            {
                                "line": line,
                                "name": name,
                                "detail": f"module-level {tail}(...) bound to {name!r}",
                            }
                        )

    def _maybe_register(self, call: ast.Call) -> None:
        dotted = dotted_name(call.func)
        if dotted is None or not self._expand(dotted).endswith(
            "register_experiment"
        ):
            return
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            ref = dotted_name(arg)
            if ref is not None and not isinstance(arg, ast.Constant):
                self.registered.append(
                    {"kind": "name", "ref": self._expand(ref), "line": call.lineno}
                )

    # -- classes ------------------------------------------------------
    def _scan_class(self, node: ast.ClassDef) -> None:
        bases = []
        for base in node.bases:
            dotted = dotted_name(base)
            if dotted is not None:
                bases.append(self._expand(dotted))
        info = {"bases": bases, "methods": [], "attr_types": {}, "line": node.lineno}
        self.classes[node.name] = info
        for sub in node.body:
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info["methods"].append(sub.name)
                self._scan_function(sub, prefix=f"{node.name}.", cls=node.name)
            # nested classes are rare in this tree; skipped on purpose

    # -- functions ----------------------------------------------------
    def _scan_function(
        self,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        *,
        prefix: str,
        cls: str | None,
    ) -> None:
        qual = f"{prefix}{node.name}"
        args = node.args
        params = [
            a.arg
            for a in args.posonlyargs + args.args + args.kwonlyargs
        ] + [s.arg for s in (args.vararg, args.kwarg) if s is not None]
        fn = _FunctionScan(self, qual, cls, params)
        info = {
            "line": node.lineno,
            "public": not any(p.startswith("_") for p in qual.split(".")),
            "params": params,
            "intrinsic": [],
            "calls": [],
            "return_refs": [],
            "rng_sites": [],
            "ambient_return": False,
        }
        self.functions[qual] = info
        for deco in node.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            dotted = dotted_name(target)
            if dotted is not None:
                fn.add_call(
                    {"kind": "name", "ref": self._expand(dotted),
                     "line": node.lineno}
                )
        fn.scan_body(node.body)
        info["intrinsic"] = sorted(
            fn.intrinsic, key=lambda e: (e["effect"], e["line"], e["detail"])
        )
        info["calls"] = fn.calls
        info["return_refs"] = fn.return_refs
        info["rng_sites"] = sorted(
            fn.rng_sites, key=lambda s: (s["line"], s["rule"], s["detail"])
        )
        info["ambient_return"] = fn.ambient_return
        # nested defs become their own nodes, with an edge parent->child
        for child in fn.nested:
            self._scan_function(child, prefix=f"{qual}.", cls=cls)


class _FunctionScan:
    """Statement-ordered scan of one function body (lambdas folded in,
    nested defs deferred to their own nodes)."""

    def __init__(
        self, mod: _ModuleScanner, qual: str, cls: str | None, params: list[str]
    ) -> None:
        self.mod = mod
        self.qual = qual
        self.cls = cls
        self.params = set(params)
        self.intrinsic: list[dict] = []
        self.calls: list[dict] = []
        self.return_refs: list[dict] = []
        self.rng_sites: list[dict] = []
        self.ambient_return = False
        self.nested: list[ast.FunctionDef | ast.AsyncFunctionDef] = []
        self.nested_names: dict[str, str] = {}
        self.globals: set[str] = set()
        self.taint: dict[str, str] = {p: "clean" for p in params}
        self.gen_locals: set[str] = set()
        #: local name -> expanded ctor dotted name (``m = Machine()``),
        #: so ``m.run()`` resolves as a bound-method call.
        self.instance_types: dict[str, str] = {}
        self._seen_calls: set[tuple] = set()

    # -- helpers ------------------------------------------------------
    def add_call(self, ref: dict) -> None:
        key = tuple(sorted(ref.items()))
        if key not in self._seen_calls:
            self._seen_calls.add(key)
            self.calls.append(ref)

    def _effect(self, effect: str, node: ast.AST, detail: str) -> None:
        line = getattr(node, "lineno", 1)
        if not self.mod._suppressed(line, effect):
            self.intrinsic.append(
                {"effect": effect, "line": line, "detail": detail}
            )

    def _ref_for(self, expr: ast.AST, line: int) -> dict | None:
        """Symbolic call/callback reference for a Name/Attribute chain."""
        dotted = dotted_name(expr)
        if dotted is None:
            return None
        parts = dotted.split(".")
        if parts[0] in ("self", "cls") and self.cls is not None:
            if len(parts) == 2:
                return {"kind": "self", "cls": self.cls, "method": parts[1],
                        "line": line}
            if len(parts) == 3:
                return {"kind": "attr", "cls": self.cls, "attr": parts[1],
                        "method": parts[2], "line": line}
            return None
        if dotted in self.nested_names:
            return {"kind": "nested", "qual": self.nested_names[dotted],
                    "line": line}
        if len(parts) == 2 and parts[0] in self.instance_types:
            return {"kind": "instance",
                    "cls_ref": self.instance_types[parts[0]],
                    "method": parts[1], "line": line}
        return {"kind": "name", "ref": self.mod._expand(dotted), "line": line}

    # -- taint / provenance -------------------------------------------
    def _classify(self, expr: ast.AST | None) -> tuple[str, object]:
        """Seed-provenance class of an expression:
        ``("ambient", detail)`` / ``("clean", None)`` /
        ``("call", ref)`` / ``("unknown", None)``."""
        if expr is None:
            return ("ambient", "unseeded (entropy-seeded)")
        if isinstance(expr, ast.Constant):
            return ("clean", None)
        if isinstance(expr, ast.Name):
            t = self.taint.get(expr.id, "unknown")
            if t == "ambient":
                return ("ambient", f"local {expr.id!r} is ambient-derived")
            return (t if t == "clean" else "unknown", None)
        if isinstance(expr, ast.Attribute):
            root = expr
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in self.params:
                return ("clean", None)  # parameter-derived
            return ("unknown", None)
        if isinstance(expr, (ast.BinOp, ast.Tuple, ast.List)):
            kids = (
                [expr.left, expr.right]
                if isinstance(expr, ast.BinOp)
                else list(expr.elts)
            )
            verdicts = [self._classify(k) for k in kids]
            for v in verdicts:
                if v[0] == "ambient":
                    return v
            if verdicts and all(v[0] == "clean" for v in verdicts):
                return ("clean", None)
            return ("unknown", None)
        if isinstance(expr, ast.Call):
            return self._classify_call(expr)
        return ("unknown", None)

    def _classify_call(self, call: ast.Call) -> tuple[str, object]:
        dotted = dotted_name(call.func)
        if dotted is None:
            return ("unknown", None)
        expanded = self.mod._expand(dotted)
        tail = expanded.rsplit(".", 1)[-1]
        if self._is_ambient_call(expanded):
            return ("ambient", f"{expanded}()")
        if tail in _CLEAN_RNG_FNS:
            return ("clean", None)
        if tail in _GEN_CTORS:
            seed = call.args[0] if call.args else None
            if seed is None:
                for kw in call.keywords:
                    if kw.arg in ("seed", "entropy"):
                        seed = kw.value
                        break
            kind, detail = self._classify(seed)
            if kind == "ambient" and seed is None:
                return ("ambient", f"{tail}() without a seed")
            return (kind, detail)
        ref = self._ref_for(call.func, call.lineno)
        if ref is not None and ref["kind"] == "name" and "." in ref["ref"]:
            return ("call", ref)
        return ("unknown", None)

    def _is_ambient_rng(self, expanded: str) -> bool:
        """True randomness sources — the FLOW002 effect."""
        parts = expanded.split(".")
        if parts[0] in ("random", "secrets") and len(parts) > 1:
            return True
        if (
            len(parts) >= 3
            and parts[-2] == "random"
            and parts[-3] in ("np", "numpy")
            and parts[-1] in _NP_LEGACY
        ):
            return True
        return expanded in ("os.urandom", "uuid.uuid4")

    def _is_ambient_call(self, expanded: str) -> bool:
        """Ambient *seed material* — anything that must not feed a
        Generator/SeedSequence (wider than :meth:`_is_ambient_rng`:
        pids, uuids and clocks are deterministic-ish but unreplayable)."""
        sufs = _suffixes(expanded)
        if sufs & _WALL_CLOCK or expanded in _AMBIENT_FNS:
            return True
        return self._is_ambient_rng(expanded)

    # -- statement walk -----------------------------------------------
    def scan_body(self, stmts: list[ast.stmt]) -> None:
        # first pass: nested def names (forward refs in callbacks)
        for node in ast.walk(ast.Module(body=list(stmts), type_ignores=[])):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name not in self.nested_names:
                    self.nested_names[node.name] = f"{self.qual}.{node.name}"
        for stmt in stmts:
            self._scan_stmt(stmt)

    def _scan_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.nested.append(stmt)
            self.add_call(
                {"kind": "nested", "qual": f"{self.qual}.{stmt.name}",
                 "line": stmt.lineno}
            )
            return
        if isinstance(stmt, ast.ClassDef):
            return  # local classes: out of scope for the FLOW pass
        if isinstance(stmt, ast.Global):
            self.globals.update(stmt.names)
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            self._scan_assign(stmt)
        if isinstance(stmt, ast.Return) and stmt.value is not None:
            kind, detail = self._classify(stmt.value)
            if kind == "ambient" and self._returns_generator(stmt.value):
                self.ambient_return = True
            if isinstance(stmt.value, ast.Call):
                ref = self._ref_for(stmt.value.func, stmt.lineno)
                if ref is not None:
                    self.return_refs.append(ref)
        self._scan_exprs(stmt)
        for field in ("body", "orelse", "finalbody"):
            for sub in getattr(stmt, field, []):
                self._scan_stmt(sub)
        for handler in getattr(stmt, "handlers", []):
            for sub in handler.body:
                self._scan_stmt(sub)

    def _returns_generator(self, expr: ast.AST) -> bool:
        if isinstance(expr, ast.Call):
            dotted = dotted_name(expr.func)
            if dotted is not None:
                tail = self.mod._expand(dotted).rsplit(".", 1)[-1]
                return tail in _GEN_CTORS or tail in _CLEAN_RNG_FNS
        if isinstance(expr, ast.Name):
            return expr.id in self.gen_locals
        return False

    def _scan_assign(self, stmt: ast.stmt) -> None:
        value = getattr(stmt, "value", None)
        targets = (
            stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        )
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        # global mutation: assignment to a declared-global name
        for name in names:
            if name in self.globals:
                self._effect(
                    "global-mutation", stmt,
                    f"assignment to global {name!r}",
                )
        for t in targets:
            if (
                isinstance(t, ast.Subscript)
                and dotted_name(t.value) is not None
                and self.mod._expand(dotted_name(t.value)).endswith("os.environ")
            ):
                self._effect("global-mutation", stmt, "os.environ mutation")
            # self.<attr> = ClassName(...): record the attribute's type
            if (
                isinstance(t, ast.Attribute)
                and isinstance(t.value, ast.Name)
                and t.value.id == "self"
                and self.cls is not None
                and isinstance(value, ast.Call)
            ):
                dotted = dotted_name(value.func)
                if dotted is not None:
                    attrs = self.mod.classes.get(self.cls, {}).get(
                        "attr_types", {}
                    )
                    attrs.setdefault(t.attr, self.mod._expand(dotted))
        if value is None or not names:
            return
        if isinstance(value, ast.Call):
            ctor = dotted_name(value.func)
            if ctor is not None:
                expanded = self.mod._expand(ctor)
                for name in names:
                    self.instance_types.setdefault(name, expanded)
        kind, detail = self._classify(value)
        for name in names:
            if kind in ("ambient", "clean"):
                self.taint[name] = kind
            if self._returns_generator(value):
                self.gen_locals.add(name)
        if kind == "call" and any(_RNG_NAME.search(n) for n in names):
            # rng-ish name bound to a project call: provenance depends on
            # whether the callee returns an ambient generator (resolved
            # against the whole graph by the driver)
            line = getattr(stmt, "lineno", 1)
            if not self.mod._suppressed(line, "seed-provenance"):
                self.rng_sites.append(
                    {
                        "rule": "FLOW006",
                        "line": line,
                        "provenance": "call",
                        "ref": detail,
                        "detail": f"{' = '.join(names)} assigned from call",
                    }
                )

    def _scan_exprs(self, stmt: ast.stmt) -> None:
        """Expression-level scan of one statement (not its block bodies)."""
        blocks: list[list[ast.stmt]] = [
            getattr(stmt, f, []) for f in ("body", "orelse", "finalbody")
        ]
        nested_stmts = {
            id(s) for block in blocks for s in block
        } | {id(s) for h in getattr(stmt, "handlers", []) for s in h.body}

        def walk(node: ast.AST) -> None:
            for child in ast.iter_child_nodes(node):
                if id(child) in nested_stmts or isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    continue
                self._visit_expr(child)
                walk(child)

        walk(stmt)
        # the statement itself may be the interesting node (For, With...)
        self._visit_expr(stmt)

    def _visit_expr(self, node: ast.AST) -> None:
        if isinstance(node, (ast.For, ast.comprehension)):
            it = node.iter
            if isinstance(it, ast.Set) or (
                isinstance(it, ast.Call)
                and dotted_name(it.func) in ("set", "frozenset")
            ):
                self._effect(
                    "unordered-iter", node if isinstance(node, ast.For) else it,
                    "iteration over an unordered set",
                )
        if not isinstance(node, ast.Call):
            return
        self._scan_call(node)

    def _scan_call(self, call: ast.Call) -> None:
        self.mod._maybe_register(call)
        dotted = dotted_name(call.func)
        if dotted is None:
            # ``super().meth(...)``: the func is an Attribute over a Call,
            # so it has no dotted name — catch it before bailing out.
            if (
                isinstance(call.func, ast.Attribute)
                and isinstance(call.func.value, ast.Call)
                and isinstance(call.func.value.func, ast.Name)
                and call.func.value.func.id == "super"
                and self.cls is not None
            ):
                self.add_call(
                    {"kind": "super", "cls": self.cls,
                     "method": call.func.attr, "line": call.lineno}
                )
            return
        expanded = self.mod._expand(dotted)
        sufs = _suffixes(expanded)
        tail = expanded.rsplit(".", 1)[-1]
        # ---- intrinsic effects
        hits = sufs & _WALL_CLOCK
        if hits:
            self._effect("wall-clock", call, f"{expanded}()")
        elif self._is_ambient_rng(expanded):
            self._effect("ambient-rng", call, f"{expanded}()")
        elif tail == "default_rng" and not (call.args or call.keywords):
            self._effect("ambient-rng", call, "unseeded default_rng()")
        if self._is_fs_write(call, expanded, sufs, tail):
            self._effect("fs-write", call, f"{expanded}(...)")
        # ---- seed provenance: generator creation sites
        if tail in _GEN_CTORS:
            kind, detail = self._classify_call(call)
            line = call.lineno
            if not self.mod._suppressed(line, "seed-provenance"):
                if kind == "ambient":
                    self.rng_sites.append(
                        {"rule": "FLOW006", "line": line,
                         "provenance": "ambient",
                         "detail": f"{tail}(...) seeded from {detail}"}
                    )
                elif kind == "call":
                    self.rng_sites.append(
                        {"rule": "FLOW006", "line": line,
                         "provenance": "call", "ref": detail,
                         "detail": f"{tail}(...) seeded from a call"}
                    )
        # ---- call-graph references
        if isinstance(call.func, ast.Name) and call.func.id == "super":
            pass  # the interesting node is the enclosing attribute call
        else:
            ref = self._ref_for(call.func, call.lineno)
            if ref is not None:
                self.add_call(ref)
        # ---- callback references: function-valued arguments
        dispatch = tail in _DISPATCH
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            if isinstance(arg, (ast.Name, ast.Attribute)):
                ref = self._ref_for(arg, call.lineno)
                if ref is not None:
                    self.add_call(ref)
            if dispatch:
                self._check_capture(arg, call.lineno)
            if isinstance(arg, ast.Lambda):
                # fold the lambda body into this function's scan
                self._visit_expr(arg.body)
                for sub in ast.walk(arg.body):
                    self._visit_expr(sub)

    def _check_capture(self, arg: ast.AST, line: int) -> None:
        """FLOW007: a lambda/nested def crossing a pool boundary while
        closing over a local generator."""
        free: set[str] = set()
        if isinstance(arg, ast.Lambda):
            bound = {a.arg for a in arg.args.args + arg.args.kwonlyargs}
            free = {
                n.id
                for n in ast.walk(arg.body)
                if isinstance(n, ast.Name) and n.id not in bound
            }
        elif isinstance(arg, ast.Name) and arg.id in self.nested_names:
            node = next(
                (n for n in self.nested if n.name == arg.id), None
            )
            if node is not None:
                bound = {a.arg for a in node.args.args + node.args.kwonlyargs}
                free = {
                    n.id
                    for n in ast.walk(node)
                    if isinstance(n, ast.Name) and n.id not in bound
                }
        captured = sorted(free & self.gen_locals)
        if captured and not self.mod._suppressed(line, "rng-boundary"):
            self.rng_sites.append(
                {
                    "rule": "FLOW007",
                    "line": line,
                    "provenance": "capture",
                    "detail": (
                        f"generator {captured[0]!r} captured by a closure "
                        f"crossing a pool/worker boundary"
                    ),
                }
            )

    def _is_fs_write(
        self, call: ast.Call, expanded: str, sufs: set[str], tail: str
    ) -> bool:
        if tail in _FS_SUFFIXES:
            return True
        if sufs & _FS_FULL:
            return True
        if expanded in ("open", "io.open"):
            mode = None
            if len(call.args) >= 2:
                mode = call.args[1]
            for kw in call.keywords:
                if kw.arg == "mode":
                    mode = kw.value
            if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
                return bool(_WRITE_MODES.search(mode.value))
        return False


def extract_module(
    path: str,
    tree: ast.Module,
    suppressions: dict[int, set[str] | None],
    module: str,
) -> dict:
    """Summary dict for one parsed module (see module docstring).
    ``suppressions`` is the engine's line -> rule-id map
    (:attr:`repro.analysis.rules.FileContext.suppressions`)."""
    return _ModuleScanner(path, module, tree, suppressions).run()


def module_names(paths: list[str]) -> dict[str, str]:
    """Dotted module name for each display path.

    Package membership is inferred from the analyzed set itself: a
    directory is a package exactly when its ``__init__.py`` is among
    the paths, and the module name is the chain of enclosing packages
    plus the stem.  This names ``src/repro/htm/machine.py`` as
    ``repro.htm.machine`` and a fixture mini-package's
    ``registry/reg/exp.py`` as ``reg.exp`` with no layout knowledge.
    """
    path_set = {Path(p).as_posix() for p in paths}
    names: dict[str, str] = {}
    for path in paths:
        p = Path(path)
        bits = [] if p.name == "__init__.py" else [p.stem]
        parent = p.parent
        while (parent / "__init__.py").as_posix() in path_set:
            bits.insert(0, parent.name)
            parent = parent.parent
        names[path] = ".".join(bits) if bits else p.stem
    return names
