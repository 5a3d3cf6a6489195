"""Shared-state purity walker.

The engine behind C001 (thread-pool races) and C002 (purity contracts):
given a callable and a classification of its arguments, walk the body —
transitively, across module boundaries — and report every write that can
land on shared state.

Each value is classified on a small lattice:

* **shared** — reachable by other threads/processes (``self`` of a
  shared object, parameters bound to shared arguments, module globals);
* **fresh** — constructed inside the walked call tree, hence local to
  it (literals, comprehensions, constructor calls and their captured
  attribute map);
* **scratch** — caller-owned state a C002 contract explicitly sanctions
  writes to (e.g. the ``scratch`` of ``Engine.evaluate(scratch)``).

Fresh *instances* of project classes carry a per-attribute
classification derived from walking ``__init__`` with the call-site
argument values — so a locally constructed object that captures shared
state (``InsertionContext(design=self.design, ...)``) keeps that state
shared when its methods are later walked.  This closes the fresh-local
capture hole the original C001 documented.  Attributes of *shared*
instances are shared, with one exemption: attributes whose inferred
class derives from ``threading.local`` are per-thread by construction.

Soundness line (documented in docs/STATIC_ANALYSIS.md): the walk
follows calls it can resolve through the symbol table and skips the
rest — except the mutator-method names (``append``, ``update``, ...)
and mutating stdlib functions (``heapq.heappush``, ``bisect.insort``),
which are always checked against their receiver/argument.  Property
*reads* are not followed (they are loads, not calls).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from tools.repro_lint.symbols import (
    ClassInfo,
    FunctionInfo,
    FunctionNode,
    SymbolTable,
    dotted_name,
)

FRESH = "fresh"
SHARED = "shared"
SCRATCH = "scratch"

#: Container/object methods that mutate their receiver in place.
MUTATOR_METHODS = {
    "append", "appendleft", "extend", "extendleft", "insert", "remove",
    "pop", "popleft", "popitem", "clear", "add", "discard", "update",
    "setdefault", "sort", "reverse", "rotate", "write", "put",
    "difference_update", "intersection_update", "symmetric_difference_update",
}

#: Module functions that mutate one of their arguments (by index).
MUTATING_FUNCTIONS = {
    "heapq.heappush": 0,
    "heapq.heappop": 0,
    "heapq.heapify": 0,
    "heapq.heappushpop": 0,
    "heapq.heapreplace": 0,
    "bisect.insort": 0,
    "bisect.insort_left": 0,
    "bisect.insort_right": 0,
    "random.shuffle": 0,
    "operator.setitem": 0,
    "operator.delitem": 0,
}

_MAX_DEPTH = 10

_FUNCTION_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)

_FRESH_EXPRS = (
    ast.List, ast.Dict, ast.Set, ast.Tuple,
    ast.ListComp, ast.DictComp, ast.SetComp, ast.GeneratorExp,
    ast.Constant, ast.BinOp, ast.Compare, ast.BoolOp,
    ast.UnaryOp, ast.JoinedStr, ast.FormattedValue, ast.Lambda,
)


@dataclass
class Val:
    """Classification of one runtime value."""

    kind: str  # FRESH / SHARED / SCRATCH
    cls: Optional[str] = None  # class qname when statically known
    #: Per-attribute classification for fresh instances (captures what
    #: the constructor stored); None for plain values.
    attrs: Optional[Dict[str, "Val"]] = None

    def fingerprint(self) -> Tuple[object, ...]:
        attrs = (
            tuple(sorted((k, v.kind, v.cls) for k, v in self.attrs.items()))
            if self.attrs is not None else None
        )
        return (self.kind, self.cls, attrs)


FRESH_VAL = Val(FRESH)
SHARED_VAL = Val(SHARED)


def join(a: Val, b: Val) -> Val:
    """Least upper bound: shared beats scratch beats fresh."""
    for kind in (SHARED, SCRATCH):
        if a.kind == kind or b.kind == kind:
            return Val(kind, a.cls if a.cls == b.cls else None)
    cls = a.cls if a.cls == b.cls else (a.cls or b.cls)
    attrs: Optional[Dict[str, Val]] = None
    if a.attrs is not None or b.attrs is not None:
        attrs = dict(a.attrs or {})
        for key, val in (b.attrs or {}).items():
            attrs[key] = join(attrs[key], val) if key in attrs else val
    return Val(FRESH, cls, attrs)


def element_of(value: Val) -> Val:
    """Classification of an element/slice of a container value."""
    if value.kind == FRESH:
        return Val(FRESH, None)
    return Val(value.kind, None)


@dataclass
class PurityFinding:
    """One shared-state write discovered during a walk."""

    rel_path: str
    line: int
    what: str


@dataclass
class _Scope:
    """One function activation: bindings plus lexical parent (closures)."""

    env: Dict[str, Val]
    rel_path: str
    fn_name: str
    module: str  # module the walked code belongs to (for name resolution)
    declared_shared: Set[str] = field(default_factory=set)
    local_funcs: Dict[str, FunctionNode] = field(default_factory=dict)
    parent: Optional["_Scope"] = None

    def lookup(self, name: str) -> Optional[Val]:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.env:
                return scope.env[name]
            scope = scope.parent
        return None

    def lookup_local_func(self, name: str) -> Optional[FunctionNode]:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.local_funcs:
                return scope.local_funcs[name]
            scope = scope.parent
        return None

    def is_declared_shared(self, name: str) -> bool:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.declared_shared:
                return True
            scope = scope.parent
        return False


class PurityWalker:
    """Transitive shared-write analysis over the project symbol table."""

    def __init__(self, symbols: SymbolTable, max_depth: int = _MAX_DEPTH):
        self.symbols = symbols
        self.max_depth = max_depth
        self.findings: List[PurityFinding] = []
        self._visited: Set[Tuple[object, ...]] = set()
        self._reported: Set[Tuple[str, int, str]] = set()

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def walk_function(
        self, fn: FunctionInfo, env: Dict[str, Val], depth: int = 0
    ) -> None:
        """Walk ``fn`` with parameters pre-classified by ``env``."""
        key = (
            fn.qname,
            tuple(sorted((k, v.fingerprint()) for k, v in env.items())),
        )
        if key in self._visited or depth > self.max_depth:
            return
        self._visited.add(key)
        scope = _Scope(
            env=dict(env), rel_path=fn.rel_path, fn_name=fn.name,
            module=fn.module,
        )
        self._exec_block(fn.node.body, scope, depth)

    def walk_lambda(self, rel_path: str, module: str, node: ast.Lambda) -> None:
        """Check a lambda submitted directly to a pool.

        Its parameters are bound to shared work items; the body is one
        expression, so only calls can mutate.
        """
        env = {arg.arg: SHARED_VAL for arg in node.args.args}
        scope = _Scope(
            env=env, rel_path=rel_path, fn_name="<lambda>", module=module,
        )
        self._scan_expr(node.body, scope, 0)

    def bind_call(
        self,
        fn: FunctionInfo,
        call: Optional[ast.Call],
        arg_vals: Sequence[Val],
        kwarg_vals: Dict[str, Val],
        self_val: Optional[Val],
    ) -> Dict[str, Val]:
        """Map call-site argument classifications onto parameter names.

        Parameters not passed take the classification of their default
        expression (``cache=None`` stays fresh); ``*args``/``**kwargs``
        bind shared (conservative).
        """
        node = fn.node
        params = list(node.args.posonlyargs) + list(node.args.args)
        env: Dict[str, Val] = {}
        offset = 0
        if params and params[0].arg in ("self", "cls") and self_val is not None:
            env[params[0].arg] = self_val
            offset = 1
        for index, param in enumerate(params[offset:]):
            if index < len(arg_vals):
                env[param.arg] = arg_vals[index]
        for param in list(params[offset:]) + list(node.args.kwonlyargs):
            if param.arg in kwarg_vals:
                env[param.arg] = kwarg_vals[param.arg]
        # Defaults for anything still unbound.
        defaults = node.args.defaults
        positional = params
        for index, default in enumerate(defaults):
            param = positional[len(positional) - len(defaults) + index]
            if param.arg not in env:
                env[param.arg] = self._classify_default(default, fn)
        for param, kw_default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if param.arg not in env and kw_default is not None:
                env[param.arg] = self._classify_default(kw_default, fn)
        if node.args.vararg is not None:
            env.setdefault(node.args.vararg.arg, SHARED_VAL)
        if node.args.kwarg is not None:
            env.setdefault(node.args.kwarg.arg, SHARED_VAL)
        # Anything left (e.g. missing positional in odd call shapes).
        for param in positional + list(node.args.kwonlyargs):
            env.setdefault(param.arg, SHARED_VAL)
        return env

    def _classify_default(self, default: ast.expr, fn: FunctionInfo) -> Val:
        if isinstance(default, _FRESH_EXPRS):
            return FRESH_VAL
        return SHARED_VAL

    # ------------------------------------------------------------------
    # Statement execution
    # ------------------------------------------------------------------

    def _exec_block(
        self, body: Sequence[ast.stmt], scope: _Scope, depth: int
    ) -> None:
        for stmt in body:
            self._exec_stmt(stmt, scope, depth)

    def _exec_stmt(self, stmt: ast.stmt, scope: _Scope, depth: int) -> None:
        if isinstance(stmt, _FUNCTION_DEFS):
            scope.local_funcs[stmt.name] = stmt
            return
        if isinstance(stmt, (ast.Global, ast.Nonlocal)):
            scope.declared_shared.update(stmt.names)
            return
        if isinstance(stmt, ast.Assign):
            value_val = self._scan_expr(stmt.value, scope, depth)
            for target in stmt.targets:
                self._check_store(target, scope, stmt.lineno)
            for target in stmt.targets:
                self._bind_target(target, stmt.value, value_val, scope)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                value_val = self._scan_expr(stmt.value, scope, depth)
                self._check_store(stmt.target, scope, stmt.lineno)
                self._bind_target(stmt.target, stmt.value, value_val, scope)
            return
        if isinstance(stmt, ast.AugAssign):
            self._scan_expr(stmt.value, scope, depth)
            self._check_store(stmt.target, scope, stmt.lineno)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            iter_val = self._scan_expr(stmt.iter, scope, depth)
            self._bind_names(stmt.target, element_of(iter_val), scope)
            self._exec_block(stmt.body, scope, depth)
            self._exec_block(stmt.orelse, scope, depth)
            return
        if isinstance(stmt, ast.While):
            self._scan_expr(stmt.test, scope, depth)
            self._exec_block(stmt.body, scope, depth)
            self._exec_block(stmt.orelse, scope, depth)
            return
        if isinstance(stmt, ast.If):
            self._scan_expr(stmt.test, scope, depth)
            self._exec_block(stmt.body, scope, depth)
            self._exec_block(stmt.orelse, scope, depth)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                ctx_val = self._scan_expr(item.context_expr, scope, depth)
                if item.optional_vars is not None:
                    self._bind_names(item.optional_vars, ctx_val, scope)
            self._exec_block(stmt.body, scope, depth)
            return
        if isinstance(stmt, ast.Try):
            self._exec_block(stmt.body, scope, depth)
            for handler in stmt.handlers:
                if handler.name is not None:
                    scope.env[handler.name] = FRESH_VAL
                self._exec_block(handler.body, scope, depth)
            self._exec_block(stmt.orelse, scope, depth)
            self._exec_block(stmt.finalbody, scope, depth)
            return
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self._check_store(target, scope, stmt.lineno, verb="delete")
            return
        if isinstance(stmt, (ast.Return, ast.Expr)):
            if stmt.value is not None:
                self._scan_expr(stmt.value, scope, depth)
            return
        if isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._scan_expr(stmt.exc, scope, depth)
            if stmt.cause is not None:
                self._scan_expr(stmt.cause, scope, depth)
            return
        if isinstance(stmt, ast.Assert):
            self._scan_expr(stmt.test, scope, depth)
            if stmt.msg is not None:
                self._scan_expr(stmt.msg, scope, depth)
            return
        # Pass/Import/Break/Continue/ClassDef: nothing to do.  A class
        # defined inside a walked function is rare enough to ignore.

    def _bind_target(
        self, target: ast.expr, value: ast.expr, value_val: Val, scope: _Scope
    ) -> None:
        if isinstance(target, ast.Name):
            scope.env[target.id] = value_val
        elif isinstance(target, (ast.Tuple, ast.List)):
            if isinstance(value, (ast.Tuple, ast.List)) and len(
                value.elts
            ) == len(target.elts):
                for sub_target, sub_value in zip(target.elts, value.elts):
                    self._bind_target(
                        sub_target, sub_value,
                        self._classify(sub_value, scope), scope,
                    )
            else:
                self._bind_names(target, element_of(value_val), scope)
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value, value, value_val, scope)
        elif isinstance(target, ast.Attribute):
            # ``self.X = value`` on a fresh instance: record what the
            # attribute now holds (constructor capture analysis).
            base_val = self._classify(target.value, scope)
            if base_val.kind == FRESH and base_val.attrs is not None:
                existing = base_val.attrs.get(target.attr)
                base_val.attrs[target.attr] = (
                    join(existing, value_val) if existing else value_val
                )

    def _bind_names(self, target: ast.expr, value_val: Val, scope: _Scope) -> None:
        for node in ast.walk(target):
            if isinstance(node, ast.Name):
                scope.env[node.id] = value_val

    # ------------------------------------------------------------------
    # Store checking
    # ------------------------------------------------------------------

    def _check_store(
        self, target: ast.expr, scope: _Scope, lineno: int, verb: str = "store"
    ) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._check_store(element, scope, lineno, verb)
            return
        if isinstance(target, ast.Starred):
            self._check_store(target.value, scope, lineno, verb)
            return
        if isinstance(target, ast.Name):
            if scope.is_declared_shared(target.id):
                self._report(
                    scope, lineno,
                    f"assignment to global/nonlocal '{target.id}' in "
                    f"'{scope.fn_name}'",
                )
            return
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            base_val = self._classify(target.value, scope)
            if base_val.kind == SHARED:
                label = self._describe(target.value)
                self._report(
                    scope, lineno,
                    f"{verb} into shared state via '{label}' in "
                    f"'{scope.fn_name}'",
                )

    @staticmethod
    def _describe(node: ast.expr) -> str:
        try:
            return ast.unparse(node)
        except Exception:  # pragma: no cover - unparse is total on 3.9+
            return "<expr>"

    def _report(self, scope: _Scope, lineno: int, what: str) -> None:
        key = (scope.rel_path, lineno, what)
        if key in self._reported:
            return
        self._reported.add(key)
        self.findings.append(PurityFinding(scope.rel_path, lineno, what))

    # ------------------------------------------------------------------
    # Expression scanning / classification
    # ------------------------------------------------------------------

    def _scan_expr(self, expr: ast.expr, scope: _Scope, depth: int) -> Val:
        """Visit calls inside ``expr`` and classify its value."""
        return self._classify(expr, scope, depth, scan=True)

    def _classify(
        self,
        expr: ast.expr,
        scope: _Scope,
        depth: int = 0,
        scan: bool = False,
    ) -> Val:
        if isinstance(expr, ast.Name):
            bound = scope.lookup(expr.id)
            if bound is not None:
                return bound
            if scope.lookup_local_func(expr.id) is not None:
                return FRESH_VAL
            # Module global / builtin: shared until proven otherwise.
            return SHARED_VAL
        if isinstance(expr, ast.Call):
            return self._handle_call(expr, scope, depth, scan)
        if isinstance(expr, ast.Attribute):
            return self._classify_attribute(expr, scope, depth, scan)
        if isinstance(expr, ast.Subscript):
            base = self._classify(expr.value, scope, depth, scan)
            if scan:
                self._classify(expr.slice, scope, depth, scan)
            return element_of(base)
        if isinstance(expr, ast.IfExp):
            if scan:
                self._classify(expr.test, scope, depth, scan)
            return join(
                self._classify(expr.body, scope, depth, scan),
                self._classify(expr.orelse, scope, depth, scan),
            )
        if isinstance(expr, ast.NamedExpr):
            value_val = self._classify(expr.value, scope, depth, scan)
            if isinstance(expr.target, ast.Name):
                scope.env[expr.target.id] = value_val
            return value_val
        if isinstance(expr, ast.Starred):
            return self._classify(expr.value, scope, depth, scan)
        if isinstance(expr, ast.Await):
            return self._classify(expr.value, scope, depth, scan)
        if isinstance(expr, ast.Lambda):
            if scan:
                self._scan_lambda_body(expr, scope, depth)
            return FRESH_VAL
        if isinstance(
            expr, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            if scan:
                self._scan_comprehension(expr, scope, depth)
            return FRESH_VAL
        if scan:
            for child in ast.iter_child_nodes(expr):
                if isinstance(child, ast.expr):
                    self._classify(child, scope, depth, scan)
        if isinstance(expr, _FRESH_EXPRS):
            return FRESH_VAL
        return FRESH_VAL

    def _classify_attribute(
        self, expr: ast.Attribute, scope: _Scope, depth: int, scan: bool
    ) -> Val:
        base = self._classify(expr.value, scope, depth, scan)
        if base.kind == SCRATCH:
            return Val(
                SCRATCH,
                self.symbols.attr_class(base.cls, expr.attr)
                if base.cls else None,
            )
        if base.kind == FRESH:
            attr_cls = (
                self.symbols.attr_class(base.cls, expr.attr)
                if base.cls else None
            )
            if base.attrs is not None and expr.attr in base.attrs:
                captured = base.attrs[expr.attr]
                if captured.cls is None and attr_cls is not None:
                    return Val(captured.kind, attr_cls, captured.attrs)
                return captured
            return Val(FRESH, attr_cls)
        # Shared base.
        attr_cls = (
            self.symbols.attr_class(base.cls, expr.attr) if base.cls else None
        )
        if self.symbols.is_thread_local(attr_cls):
            # threading.local subclass: each thread sees its own copy.
            return Val(FRESH, attr_cls)
        return Val(SHARED, attr_cls)

    def _scan_lambda_body(
        self, node: ast.Lambda, scope: _Scope, depth: int
    ) -> None:
        env = {arg.arg: FRESH_VAL for arg in (
            list(node.args.posonlyargs) + list(node.args.args)
            + list(node.args.kwonlyargs)
        )}
        inner = _Scope(
            env=env, rel_path=scope.rel_path, fn_name=scope.fn_name,
            module=scope.module, parent=scope,
        )
        self._scan_expr(node.body, inner, depth)

    def _scan_comprehension(self, node: ast.expr, scope: _Scope, depth: int) -> None:
        inner = _Scope(
            env={}, rel_path=scope.rel_path, fn_name=scope.fn_name,
            module=scope.module, parent=scope,
        )
        generators = getattr(node, "generators", [])
        for comp in generators:
            iter_val = self._scan_expr(comp.iter, inner, depth)
            self._bind_names(comp.target, element_of(iter_val), inner)
            for cond in comp.ifs:
                self._scan_expr(cond, inner, depth)
        if isinstance(node, ast.DictComp):
            self._scan_expr(node.key, inner, depth)
            self._scan_expr(node.value, inner, depth)
        else:
            self._scan_expr(node.elt, inner, depth)  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    # Calls
    # ------------------------------------------------------------------

    def _handle_call(
        self, call: ast.Call, scope: _Scope, depth: int, scan: bool
    ) -> Val:
        arg_vals = [
            self._classify(arg, scope, depth, scan) for arg in call.args
        ]
        kwarg_vals = {
            kw.arg: self._classify(kw.value, scope, depth, scan)
            for kw in call.keywords if kw.arg is not None
        }
        for kw in call.keywords:
            if kw.arg is None:  # **kwargs forwarding
                self._classify(kw.value, scope, depth, scan)
        func = call.func

        # Locally defined function (closure): walk with lexical scope.
        if isinstance(func, ast.Name):
            local = scope.lookup_local_func(func.id)
            if local is not None:
                self._walk_nested(local, call, arg_vals, kwarg_vals, scope, depth)
                return FRESH_VAL

        dotted = dotted_name(func)
        resolved: Optional[str] = None
        if dotted is not None:
            mod = self.symbols.modules.get(scope.module)
            if mod is not None:
                resolved = self.symbols.resolve(mod, dotted)

        # Mutating stdlib helpers: check the mutated argument.
        mutated_index = MUTATING_FUNCTIONS.get(resolved or dotted or "")
        if mutated_index is not None:
            if mutated_index < len(arg_vals) and (
                arg_vals[mutated_index].kind == SHARED
            ):
                self._report(
                    scope, call.lineno,
                    f"mutating call '{dotted}(...)' on shared argument in "
                    f"'{scope.fn_name}'",
                )
            return FRESH_VAL

        # Receiver-attached calls.
        if isinstance(func, ast.Attribute):
            receiver = self._classify(func.value, scope, depth)
            if func.attr in MUTATOR_METHODS:
                if receiver.kind == SHARED:
                    self._report(
                        scope, call.lineno,
                        f"mutating call '.{func.attr}(...)' on shared object "
                        f"'{self._describe(func.value)}' in '{scope.fn_name}'",
                    )
                return FRESH_VAL
            if resolved is not None:
                handled = self._call_resolved(
                    resolved, call, arg_vals, kwarg_vals, depth
                )
                if handled is not None:
                    return handled
            if receiver.cls is not None:
                method = self.symbols.lookup_method(receiver.cls, func.attr)
                if method is not None:
                    env = self.bind_call(
                        method, call, arg_vals, kwarg_vals, self_val=receiver
                    )
                    self.walk_function(method, env, depth + 1)
                    return FRESH_VAL
            # Unresolvable non-mutator method: out of reach (documented).
            return FRESH_VAL

        if resolved is not None:
            handled = self._call_resolved(
                resolved, call, arg_vals, kwarg_vals, depth
            )
            if handled is not None:
                return handled
        return FRESH_VAL

    def _call_resolved(
        self,
        qname: str,
        call: ast.Call,
        arg_vals: Sequence[Val],
        kwarg_vals: Dict[str, Val],
        depth: int,
    ) -> Optional[Val]:
        """Walk a call resolved to a known function/class; None if unknown."""
        cls_info = self.symbols.lookup_class(qname)
        if cls_info is not None:
            return self.construct(cls_info, call, arg_vals, kwarg_vals, depth)
        fn = self.symbols.lookup_function(qname)
        if fn is not None:
            self_val = SHARED_VAL if fn.class_qname is not None else None
            env = self.bind_call(fn, call, arg_vals, kwarg_vals, self_val)
            self.walk_function(fn, env, depth + 1)
            return FRESH_VAL
        return None

    def construct(
        self,
        cls_info: ClassInfo,
        call: Optional[ast.Call],
        arg_vals: Sequence[Val],
        kwarg_vals: Dict[str, Val],
        depth: int,
    ) -> Val:
        """Instantiate: walk ``__init__`` and capture the attribute map."""
        instance = Val(FRESH, cls_info.qname, attrs={})
        init = self.symbols.lookup_method(cls_info.qname, "__init__")
        if init is not None:
            env = self.bind_call(
                init, call, arg_vals, kwarg_vals, self_val=instance
            )
            self.walk_function(init, env, depth + 1)
        post_init = self.symbols.lookup_method(cls_info.qname, "__post_init__")
        if post_init is not None and init is None:
            # Dataclass: fields come from the call site by position/name.
            fields = [
                name for name in cls_info.attr_types
                if not name.startswith("__")
            ]
            attrs = instance.attrs
            if attrs is not None:
                for index, value in enumerate(arg_vals):
                    if index < len(fields):
                        attrs[fields[index]] = value
                attrs.update(kwarg_vals)
            self.walk_function(post_init, {"self": instance}, depth + 1)
        elif init is None and instance.attrs is not None:
            # No constructor at all: dataclass fields map positionally.
            fields = list(cls_info.attr_types)
            for index, value in enumerate(arg_vals):
                if index < len(fields):
                    instance.attrs[fields[index]] = value
            instance.attrs.update(kwarg_vals)
        return instance

    def _walk_nested(
        self,
        node: FunctionNode,
        call: ast.Call,
        arg_vals: Sequence[Val],
        kwarg_vals: Dict[str, Val],
        scope: _Scope,
        depth: int,
    ) -> None:
        if depth > self.max_depth:
            return
        params = list(node.args.posonlyargs) + list(node.args.args)
        env: Dict[str, Val] = {}
        for index, param in enumerate(params):
            if index < len(arg_vals):
                env[param.arg] = arg_vals[index]
        for param in params + list(node.args.kwonlyargs):
            if param.arg in kwarg_vals:
                env[param.arg] = kwarg_vals[param.arg]
        for param in params + list(node.args.kwonlyargs):
            env.setdefault(param.arg, FRESH_VAL)
        inner = _Scope(
            env=env, rel_path=scope.rel_path, fn_name=node.name,
            module=scope.module, parent=scope,
        )
        self._exec_block(node.body, inner, depth + 1)
