"""Expression trees over phase-space variables x1..xn, xi1..xin.

The node set is deliberately small -- complex constants, variables, sums,
products, real powers, sin, cos, exp -- and is closed under
differentiation with respect to any variable.  Negation is Mul(., -1),
square roots are Pow(., 0.5) and a quotient u / v is Mul(u, Pow(v, -1)),
so its k-th derivative has the denominator power v^(k+1).  There is no
simplification beyond constant folding and neutral-element elimination
(a fold whose constant is not finite raises DomainError): `add` and
`mul` splice in the children of a same-kind argument and fold every
constant in the order met.  Semantic questions (is this tree zero?) are
settled by sampling, not by rewriting.

Nodes are immutable and hash-consed (Filliatre & Conchon 2006): a table
of weak references, keyed by class, child ids and payload (floats by bit
pattern: 0.0 is not -0.0), gives each structure one live node, so
identity means structure and all that is keyed by it shares subtrees.
A node defines no `__eq__`: it hashes by identity, so memos and tables
key nodes themselves, and a key keeps its node alive.

Evaluation has one implementation, `Program`, whose docstring states its
contract: what a call computes and returns, in which dtype, how samples
broadcast, the point function that a program called at one point again
runs (its source compiled once per process), and the domain checks.
`e.ev(x, xi)` (alias `ev_cached`) and `evaluate(e, point)` call it.

Each node kind lists its children once, as `args` in evaluation order,
and `rebuild(args)` makes the same kind of node over new children
through the smart constructors (a leaf rebuilds to itself).  What each
kind means is one rule in a table per operation: `_OPS` evaluates the
kinds with children, `_DIFF` differentiates and `_RENDER` serializes.
Transforms are rules for `_walk`, which applies a rule bottom up once
per distinct node, so they stay linear on the shared DAGs that
differentiation builds: `render` joins the rendered children, `conj`
conjugates the constants, `subst` looks the variables up in a table, and
`quantize._separate` splits a term into x and xi factors.  `diff` keeps
each derivative in a memo on its node, keyed by variable, so it is
linear too and a later call, from any caller, finds it there.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
import operator
import struct
import weakref

import numpy as np

from .errors import DomainError

_DIV_EPS = 1e-14


def _as_expr(v) -> "Expr":
    if isinstance(v, Expr):
        return v
    if isinstance(v, numbers.Number):
        return Const(complex(v))
    raise TypeError(f"cannot coerce {v!r} to Expr")


class Expr:
    """Base class.  Nodes are interned: `is` and `==` mean structure.
    `_d` is the node's derivative memo, made on the first `diff`."""

    __slots__ = ("_d", "__weakref__")
    args = ()

    def __new__(cls, *args):
        return _intern(cls, (cls, *map(id, args)), *args)

    def __setattr__(self, *a):
        raise AttributeError("Expr nodes are immutable")

    def __reduce__(self):       # pickle rebuilds through the constructor
        return type(self), tuple(getattr(self, f) for f in self._fields)

    __copy__ = __deepcopy__ = lambda self, memo=None: self  # the one node

    # -- arithmetic sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, _as_expr(other))

    def __radd__(self, other):
        return add(_as_expr(other), self)

    def __sub__(self, other):
        return add(self, neg(_as_expr(other)))

    def __rsub__(self, other):
        return add(_as_expr(other), neg(self))

    def __mul__(self, other):
        return mul(self, _as_expr(other))

    def __rmul__(self, other):
        return mul(_as_expr(other), self)

    def __truediv__(self, other):
        return div(self, _as_expr(other))

    def __rtruediv__(self, other):
        return div(_as_expr(other), self)

    def __pow__(self, p):
        return pow_(self, p)

    def __neg__(self):
        return neg(self)

    def ev(self, x: np.ndarray, xi: np.ndarray) -> np.ndarray:
        """Evaluate at real sample points x, xi of broadcastable shapes
        (n, ...), as `Program` does: float64 values if the tree is real,
        complex128 otherwise."""
        return Program([self])(x, xi)[0]

    def rebuild(self, args) -> "Expr":
        """This kind of node over new children; a leaf is itself."""
        return self

    def conj(self) -> "Expr":
        """Complex conjugate: every constant conjugated."""
        return _walk(self, lambda node, args: (
            Const(node.value.conjugate()) if isinstance(node, Const)
            else node.rebuild(args)))

    def subst(self, table: dict) -> "Expr":
        """Replace variables per table {("x", j): Expr, ...}."""
        return _walk(self, lambda node, args: (
            table.get((node.kind, node.j), node) if isinstance(node, Var)
            else node.rebuild(args)))

    def diff(self, kind: str, j: int) -> "Expr":
        """Plain partial derivative with respect to x_j or xi_j (1-based),
        built once per node and variable and kept in the node's memo, so
        a DAG differentiates in linear time and a repeated call returns
        the same object."""
        try:
            return self._d[kind, j]
        except AttributeError:
            object.__setattr__(self, "_d", {})
        except KeyError:
            pass
        d = self._d[kind, j] = _DIFF[type(self)](self, kind, j)
        return d

    def render(self) -> str:
        """Serialize in the CLI grammar (re-parseable)."""
        return _walk(self, lambda node, args: _RENDER[type(node)](node, args))

    def __repr__(self):
        return self.render()


def _walk(root: Expr, rule, memo=None, leaf=None):
    """rule(node, results for node.args) applied bottom up, once per
    distinct node however many parents share it; returns the result for
    root and leaves every node's result in memo, keyed by the node, which
    the key keeps alive.  Linear in the DAG, where a tree recursion is
    exponential in its depth of sharing.  The walk does not enter a node
    for which leaf(node) holds: it gets rule(node, None)."""
    memo = {} if memo is None else memo
    if root not in memo:
        memo[root] = rule(root, None if leaf and leaf(root) else
                          [_walk(c, rule, memo, leaf) for c in root.args])
    return memo[root]


_NODES = {}     # (class, child ids, payload) -> KeyedRef to the one node
_bits = struct.Struct("<d").pack     # a float key: 0.0 and -0.0 apart


def _forget(ref, nodes=_NODES):
    if nodes.get(ref.key) is ref:       # not a newer node under the key
        del nodes[ref.key]


def _intern(cls, key, *fields):
    """The live node under key, else a new cls node with `_fields` set."""
    ref = _NODES.get(key)
    node = ref and ref()
    if node is None:
        node = object.__new__(cls)
        for name, v in zip(cls._fields, fields):
            object.__setattr__(node, name, v)
        _NODES[key] = weakref.KeyedRef(node, _forget, key)
    return node


class Const(Expr):
    __slots__ = _fields = ("value",)

    def __new__(cls, value):
        v = complex(value)
        return _intern(cls, (cls, _bits(v.real), _bits(v.imag)), v)


class Var(Expr):
    __slots__ = _fields = ("kind", "j")

    def __new__(cls, kind, j):
        if kind not in ("x", "xi"):
            raise ValueError("variable kind must be 'x' or 'xi'")
        return _intern(cls, (cls, kind, int(j)), kind, int(j))


class Add(Expr):
    __slots__ = _fields = ("terms",)

    def __new__(cls, terms):        # Mul's too: one tuple of children
        terms = tuple(terms)
        return _intern(cls, (cls, *map(id, terms)), terms)

    args = property(operator.attrgetter("terms"))

    def rebuild(self, args):
        return add(*args)


class Mul(Expr):
    __slots__ = _fields = ("factors",)

    __new__ = Add.__new__

    args = property(operator.attrgetter("factors"))

    def rebuild(self, args):
        return mul(*args)


class Pow(Expr):
    """Real, constant exponent.  Non-integer exponents require a
    non-negative real base at evaluation time."""

    __slots__ = _fields = ("base", "expo")

    def __new__(cls, base, expo):
        expo = float(expo)
        return _intern(cls, (cls, id(base), _bits(expo)), base, expo)

    args = property(lambda self: (self.base,))

    def rebuild(self, args):
        return pow_(args[0], self.expo)


class _Fn(Expr):
    __slots__ = _fields = ("arg",)
    name = ""

    args = property(lambda self: (self.arg,))

    def rebuild(self, args):
        return type(self)(args[0])


class Sin(_Fn):
    __slots__ = ()
    name = "sin"


class Cos(_Fn):
    __slots__ = ()
    name = "cos"


class Exp(_Fn):
    __slots__ = ()
    name = "exp"


# -- smart constructors (constant folding, neutral elements) --------------

ZERO = Const(0.0)
ONE = Const(1.0)
I = Const(1j)


def _folded(value: complex, what: str) -> Const:
    """The constant a fold computed; DomainError unless it is finite."""
    if not cmath.isfinite(value):
        raise DomainError(f"constant {what} is not finite")
    return Const(value)


def _spliced(cls, items, const: complex, fold):
    """The children of items, a `cls` item's own spliced in, and const
    with every constant among them folded in by fold, in the order met."""
    merged = []
    for item in items:
        for e in item.args if type(item) is cls else (_as_expr(item),):
            if type(e) is Const:
                const = fold(const, e.value)
            else:
                merged.append(e)
    return merged, const


def add(*terms) -> Expr:
    merged, const = _spliced(Add, terms, 0.0 + 0.0j, operator.add)
    if const != 0:
        merged.append(_folded(const, "sum"))
    if len(merged) > 1:
        return Add(merged)
    return merged[0] if merged else ZERO


def mul(*factors) -> Expr:
    merged, const = _spliced(Mul, factors, 1.0 + 0.0j, operator.mul)
    if const == 0:
        return ZERO
    if const != 1:
        merged.append(_folded(const, "product"))
    if len(merged) > 1:
        return Mul(merged)
    return merged[0] if merged else ONE


def neg(e) -> Expr:
    return mul(Const(-1.0), _as_expr(e))


def div(num, den) -> Expr:
    num = _as_expr(num)
    den = _as_expr(den)
    if isinstance(den, Const):
        if den.value == 0:
            raise DomainError("division by the constant zero")
        return mul(_folded(1.0 / den.value, "quotient"), num)
    return mul(num, pow_(den, -1.0))


def pow_(base, expo) -> Expr:
    base = _as_expr(base)
    expo = float(expo)
    if not math.isfinite(expo):
        raise DomainError(f"exponent {expo!r} is not finite")
    if expo == 0.0:
        return ONE
    if expo == 1.0:
        return base
    if isinstance(base, Const):
        v = base.value
        if v.imag == 0 and (v.real >= 0 or expo == int(expo)):
            try:
                folded = v ** expo
            except (ZeroDivisionError, OverflowError):
                raise DomainError(f"constant power {_fmt_real(v.real)}^"
                                  f"{_fmt_real(expo)} is not finite") from None
            return Const(folded)
    if isinstance(base, Pow):
        # (a^p)^q = a^(pq) only where both sides share domain and branch
        p = base.expo
        if ((not p.is_integer() and not (p * expo).is_integer())
                or (p.is_integer() and expo.is_integer()
                    and p > 0 and expo > 0)):
            return pow_(base.base, p * expo)
    return Pow(base, expo)


def sqrt(e) -> Expr:
    return pow_(e, 0.5)


def sin(e) -> Expr:
    return Sin(_as_expr(e))


def cos(e) -> Expr:
    return Cos(_as_expr(e))


def exp(e) -> Expr:
    return Exp(_as_expr(e))


def x(j: int) -> Expr:
    return Var("x", j)


def xi(j: int) -> Expr:
    return Var("xi", j)


def xi_norm_sq(n: int) -> Expr:
    return add(*(mul(xi(j), xi(j)) for j in range(1, n + 1)))


def xi_norm(n: int) -> Expr:
    return sqrt(xi_norm_sq(n))


# -- differentiation and rendering -------------------------------------------
#
# One rule per node kind in each table.  A derivative rule(node, kind, j)
# builds on its children's derivatives, which `Expr.diff` memoizes on each
# child; a render rule(node, a) joins the rendered children a, for `_walk`.

def _d_product(node, kind, j):
    fs = node.factors
    ds = [f.diff(kind, j) for f in fs]
    return add(*(mul(*fs[:k], d, *fs[k + 1:])
                 for k, d in enumerate(ds) if d is not ZERO))


def _chain(outer):
    """Chain rule for a one-argument node: outer(node) * d(argument)."""
    def rule(node, kind, j):
        d = node.args[0].diff(kind, j)
        return ZERO if d is ZERO else outer(node) * d

    return rule


_DIFF = {
    Const: lambda node, kind, j: ZERO,
    Var: lambda node, kind, j: (
        ONE if (kind, j) == (node.kind, node.j) else ZERO),
    Add: lambda node, kind, j: add(*(t.diff(kind, j) for t in node.terms)),
    Mul: _d_product,
    Pow: _chain(lambda n: Const(n.expo) * pow_(n.base, n.expo - 1.0)),
    Sin: _chain(lambda n: Cos(n.arg)),
    Cos: _chain(lambda n: neg(Sin(n.arg))),
    Exp: _chain(lambda n: n),
}


def _render_const(node, a):
    z = node.value
    if z.imag == 0.0:
        return _fmt_real(z.real)
    if z.real == 0.0:
        if z.imag == 1.0:
            return "i"
        if z.imag == -1.0:
            return "(-i)"
        return f"({_fmt_real(z.imag)}*i)"
    sign = "+" if z.imag >= 0 else "-"
    return f"({_fmt_real(z.real)}{sign}{_fmt_real(abs(z.imag))}*i)"


def _fmt_real(v: float) -> str:
    s = str(int(v)) if v == int(v) and abs(v) < 1e15 else repr(v)
    return f"({s})" if v < 0 else s


_RENDER = {
    Const: _render_const,
    Var: lambda node, a: f"{node.kind}{node.j}",
    Add: lambda node, a: "(" + " + ".join(a) + ")",
    Mul: lambda node, a: "(" + "*".join(a) + ")",
    Pow: lambda node, a: (f"sqrt({a[0]})" if node.expo == 0.5
                          else f"({a[0]}^{_fmt_real(node.expo)})"),
    **dict.fromkeys((Sin, Cos, Exp), lambda node, a: f"{node.name}({a[0]})"),
}


# -- evaluation --------------------------------------------------------------
#
# One op per node kind that `Program` does not settle itself, op(node, a, b):
# the node's value from its children's arrays of samples a, b (a one-child
# node gets its child twice, a variable gets x or xi, as its kind says).
# Every op is elementwise and out of place, so values of different sample
# shapes broadcast, a sample's value does not depend on its batch and no
# array is ever written after its step.

def _var(node, v, _):
    return v[node.j - 1].astype(float)


def _power(node, b, _):
    """b ** expo; a non-integer exponent needs a real, non-negative base,
    a negative one a base of modulus at least _DIV_EPS, both judged per
    sample.  A real base takes an integer exponent 0 < |expo| < 100 as
    numpy's complex power does: squares and products, the reciprocal
    last."""
    p, whole, real = node.expo, node.expo.is_integer(), b.dtype.kind == "f"
    if p < 0 or not whole:
        m = np.abs(b)
    if not whole:
        # per sample, so the verdict on a point does not depend on its batch
        scale = np.maximum(m, 1.0)
        if not real and (abs(b.imag) > 1e-9 * scale).any():
            raise DomainError(
                f"fractional power of non-real base {node.base.render()}")
        if (b.real < -1e-12 * scale).any():
            raise DomainError(
                f"fractional power of negative base {node.base.render()}")
        b = m = np.maximum(b.real, 0.0)     # real and >= 0: its own modulus
    if p < 0 and (m < _DIV_EPS).any():
        raise DomainError(
            f"negative power of vanishing base {node.base.render()}")
    if not whole:
        return b ** p
    if not real or not 0 < abs(p) < 100:
        # numpy's complex power (square and reciprocal for 2 and -1)
        return b.astype(complex) ** int(p)
    n, out = abs(int(p)), 1.0
    while n:
        if n & 1:
            out = out * b
        n >>= 1
        if n:
            b = b * b
    return 1 / out if p < 0 else out


def _function(node, v, _):
    if node.name == "exp" and v.dtype.kind == "f":
        v = v.astype(complex)   # real exp rounds apart from complex exp
    return getattr(np, node.name)(v)          # np.sin, np.cos, np.exp


# `Program` computes sums and products in its call loop: these mark them
_OPS = {Add: operator.add, Mul: operator.mul, Pow: _power,
        Sin: _function, Cos: _function, Exp: _function}


# A point's op for each step, fixed when its function is generated.  A
# point's sin, cos and exp: numpy's float64 sin and cos and its complex
# ones round as libm's do, its float64 exp does not, so a real argument of
# exp is taken as complex, on arrays too.
_POINT_FUNCTIONS = {("sin", float): math.sin, ("cos", float): math.cos,
                    ("exp", float): cmath.exp, ("sin", complex): cmath.sin,
                    ("cos", complex): cmath.cos, ("exp", complex): cmath.exp}


def _power_at(node, b):
    """`_power` on the one sample b, as a Python scalar."""
    return _power(node, np.array([b]), None).item()


def _point_power(node, k, a, real):
    """Source lines of a power step at a point, slot k from slot a, and
    whether its value is real.  A failed domain check returns None, so
    that the array loop's `_power` raises its DomainError."""
    p = node.expo
    if real and not p.is_integer():
        # max(m, 1.0) keeps a NaN m, as np.maximum does; np.maximum(b, 0.0)
        # keeps a NaN b too, and turns -0.0 into 0.0
        lines = [f"if v{a} < -1e-12 * max(abs(v{a}), 1.0): return",
                 f"v{k} = 0.0 if v{a} <= 0.0 else v{a}"]
        if p < 0:
            lines.append(f"if v{k} < _DIV_EPS: return")
        # numpy's b ** 0.5 is sqrt, correctly rounded as math.sqrt is;
        # other powers are numpy's SIMD pow, which rounds apart from libm's
        return lines + [f"v{k} = sqrt(v{k})" if p == 0.5 else
                        f"v{k} = float(power(v{k}, e{k}))"], True
    # any other power on a one-sample array: a fractional power is real,
    # a real base's integer power 0 < |p| < 100 too, the others complex
    return [f"v{k} = power_at(n{k}, v{a})"], \
        not p.is_integer() or real and 0 < abs(p) < 100


def _point_function(steps, init, roots):
    """The steps as one straight-line Python function of a point's lists
    of x and xi values, v0 and v1, that returns the roots' values in a
    list, or None where a domain check fails (see `Program`).  Which
    nodes are real is known here, so each step's op is fixed.  Slot k is
    v{k}; a constant v{k}, a function f{k}, an exponent e{k} or a node
    n{k} is bound in the function's namespace, never written into its
    source."""
    ns = {"sqrt": math.sqrt, "power": np.power, "power_at": _power_at,
          "multiply": np.multiply, "_DIV_EPS": _DIV_EPS}
    real = {}
    for k, v in enumerate(init[2:], 2):
        if v is not None:
            ns[f"v{k}"] = v = v.item()
            real[k] = type(v) is float
    body = []
    for op, node, k, a, b, _ in steps:
        if op is _var:
            lines, real[k] = [f"v{k} = float(v{a}[{node.j - 1}])"], True
        elif op is operator.add:
            lines, real[k] = [f"v{k} = v{a} + v{b}"], real[a] and real[b]
        elif op is operator.mul:
            # a product of two complex numbers is numpy's complex multiply,
            # fused on SIMD targets
            lines = [f"v{k} = v{a} * v{b}" if real[a] or real[b] else
                     f"v{k} = complex(multiply(v{a}, v{b}))"]
            real[k] = real[a] and real[b]
        elif op is _power:
            ns[f"n{k}"], ns[f"e{k}"] = node, node.expo
            lines, real[k] = _point_power(node, k, a, real[a])
        else:                                   # sin, cos and exp
            ns[f"f{k}"] = _POINT_FUNCTIONS[
                node.name, float if real[a] else complex]
            lines = [f"v{k} = f{k}(v{a})"]
            real[k] = real[a] and node.name != "exp"
        body += lines
    body.append(f"return [{', '.join(f'v{k}' for k in roots)}]")
    source = "def point(v0, v1):\n" + "".join(f"    {s}\n" for s in body)
    exec(_compiled(source), ns)
    return ns.pop("point")      # the namespace does not hold its function


@functools.lru_cache(maxsize=16)
def _compiled(source: str):
    """The code object of a point function's source (see `Program`)."""
    return compile(source, "<psido point function>", "exec")


class Program:
    """Root expressions compiled into one topologically ordered list of
    steps.  Called with real samples x, xi of shapes (n, *S) and (n, *T),
    S and T broadcastable (a flat (n,) is one sample), it returns one
    fresh array of shape (len(roots), *broadcast(S, T)), a row per root:
    float64 if every root is real (real constants, no exp below it), else
    complex128, into which a real root upcasts exactly.  Real nodes
    compute in float64, with the values of a complex128 evaluation bit for
    bit while they stay finite: real constants and the variables start
    real, numpy's promotion keeps sums, products, sin and cos of real
    operands real and promotes a real operand of a complex step as a + 0j
    would, and only two ops look at the dtype: a real integer power
    squares and multiplies, the reciprocal last, as numpy's complex power
    rounds, and exp casts a real argument to complex.  A node computes on
    the samples of the variables below it: for x of shape (n, 1, P) and
    xi of shape (n, C, 1), x-only nodes on P samples, xi-only ones on C,
    constants on one and mixed nodes on the C x P product grid.

    A call holds every domain check: a negative power of a vanishing
    base, or a fractional power of a negative or non-real base, raises
    DomainError.  `_power` makes them; the point function below makes a
    real base's fractional-power checks again, with `_power`'s
    thresholds, and hands a point that fails one to the array loop,
    whose `_power` raises.

    Each node, one object per structure, is one slot of a list, filled
    once per call however many parents or roots share it.  Compilation
    settles what does not depend on the samples: each constant's array is
    built once, in the slot list that a call starts from a copy of; each
    step knows the slots it reads and those that die after it; the call
    loop computes sums and products inline, as binary steps that fold
    left and out of place, so a point's value does not depend on its
    batch.

    When x and xi hold one sample each, as a flow's field or `evaluate`
    does, the first such call runs the array loop, and the second builds
    the point function: the steps as one straight-line Python function on
    floats and complex numbers, which that call and every later one run.
    An op there costs a tenth of numpy's call on a one-sample array;
    building costs a line or a few of source per step, which a one-shot
    `evaluate` never pays, and its compile, made once per distinct source
    and process: `_compiled` caches the code object, never the function,
    so programs of one structure bind their own constants, exponents and
    nodes.  Which nodes are real is known when it
    is built (a constant by its value, exp is complex, a fractional power
    real, an integer power outside 0 < |p| < 100 complex, any other node
    real when its operands are), so each step's op is fixed there, and
    the values are the array loop's bit for bit: Python's float sums and
    products, sums and real-by-complex products, sqrt and libm's sin, cos
    and complex exp round as numpy's loops do; a product of two complex
    numbers (numpy's complex multiply, fused on SIMD targets) and a real
    base's fractional power other than sqrt (numpy's SIMD pow) are
    numpy's ufuncs called on the scalars; any other power is `_power` on
    a one-sample array.  Where a root is not finite, a domain check
    fails, or Python's math raises where numpy returns inf or NaN, the
    point is computed again on arrays, so values, errors and warnings
    there are numpy's too.  One sample on more axes, (n, 1, ..., 1), runs
    on (n, 1) rows on either path, as a batch's samples do: numpy
    multiplies a (1, 1) complex array by a (1,) constant unfused, and a
    batch fused.

    `values` is a table {node: array} of values on the samples of every
    call.  A node in it at compilation is a constant slot, as a constant
    is, with nothing below it compiled; each call adds every node it
    computes, and the table keeps its own arrays.  A program given a table
    always runs the array loop."""

    def __init__(self, roots, values=None):
        table = {} if values is None else values
        slot = {}               # node -> its slot
        init = [None, None]     # the slots at the start of a call
        steps = []              # (op, node, its slot, argument slots a, b)

        def emit(op, node, a=0, b=0):
            init.append(None)
            steps.append((op, node, len(init) - 1, a, b))
            return len(init) - 1

        def visit(node):
            k = slot.get(node)
            if k is None:
                v = table.get(node)
                if v is None and type(node) is Const:
                    v = node.value          # a real one in float64
                    v = np.full(1, v.real if v.imag == 0 else v)
                if v is not None:           # a slot a call starts with
                    init.append(v)
                    k = len(init) - 1
                elif type(node) is Var:         # slot 0 holds x, 1 xi
                    k = emit(_var, node, int(node.kind == "xi"))
                elif type(node) in (Add, Mul):
                    # an n-ary sum or product takes in each further term
                    # as soon as it is computed, so its terms are never
                    # all live
                    k = visit(node.args[0])
                    for c in node.args[1:]:
                        k = emit(_OPS[type(node)], node, k, visit(c))
                else:                           # one child, read as a and b
                    k = visit(node.args[0])
                    k = emit(_OPS[type(node)], node, k, k)
                slot[node] = k
            return k

        roots = list(map(visit, roots))
        visit = None            # drop its self-reference: no garbage cycle
        self._table = values
        # each node's last step computes it (an n-ary sum's or product's
        # earlier ones give partial results)
        self._record = {} if values is None else {
            node: k for op, node, k, a, b in steps}
        # each step's dead slots: those it reads last, bar x, xi, the
        # constants, the roots and the recorded nodes
        live = {0, 1, *roots, *self._record.values(),
                *(k for k, v in enumerate(init) if v is not None)}
        for i in reversed(range(len(steps))):
            dies = {steps[i][3], steps[i][4]} - live
            live |= dies
            steps[i] += (tuple(dies),)
        self._steps, self._init, self._roots = steps, init, roots
        # the point function: None before a first one-point call, False
        # after it, built on the second
        self._point = None

    def __call__(self, x: np.ndarray, xi: np.ndarray) -> np.ndarray:
        if x.ndim == 1:
            x = x[:, None]
        if xi.ndim == 1:
            xi = xi[:, None]
        shape = x.shape[1:]
        if xi.shape[1:] != shape:
            shape = np.broadcast_shapes(shape, xi.shape[1:])
        if 0 < len(x) == x.size and 0 < len(xi) == xi.size:
            if self._table is None:
                out = self._at_point(x.ravel().tolist(), xi.ravel().tolist())
                if out is not None:
                    return np.array(out).reshape(len(out), *shape)
            if len(shape) > 1:
                # one sample runs on (n, 1) rows, as a batch's: numpy
                # multiplies a (1, 1) complex array by a (1,) one unfused
                x, xi = x.reshape(-1, 1), xi.reshape(-1, 1)
        return self._loop(x, xi, shape)

    def _loop(self, x, xi, shape) -> np.ndarray:
        """The array loop on samples x, xi of broadcast shape `shape`."""
        vals = self._init.copy()
        vals[0], vals[1] = x, xi
        add, mul = operator.add, operator.mul
        for op, node, k, a, b, dead in self._steps:
            if op is mul:
                vals[k] = vals[a] * vals[b]
            elif op is add:
                vals[k] = vals[a] + vals[b]
            else:
                vals[k] = op(node, vals[a], vals[b])
            for d in dead:
                vals[d] = None
        for node, k in self._record.items():
            self._table[node] = vals[k]
        roots = [vals[k] for k in self._roots]
        out = np.empty((len(roots), *shape), complex if any(
            v.dtype.kind == "c" for v in roots) else float)
        for i, v in enumerate(roots):
            out[i] = v      # spreads a constant or a one-kind root
        return out

    def _at_point(self, x: list, xi: list):
        """The roots' values at the point of the lists x, xi, or None
        where the array loop computes them (see the class docstring)."""
        if self._point is None:
            self._point = False
            return None
        if self._point is False:
            self._point = _point_function(self._steps, self._init,
                                          self._roots)
        try:
            roots = self._point(x, xi)
        except (ArithmeticError, ValueError):
            return None
        if roots is None or not cmath.isfinite(sum(roots)):
            return None
        return roots


ev_cached = Expr.ev         # ev_cached(e, x, xi) is e.ev(x, xi)


def evaluate(e: Expr, point) -> complex:
    """Evaluate at a single phase-space point (x1..xn, xi1..xin)."""
    pt = np.asarray(point, dtype=float)
    if pt.ndim != 1 or pt.size % 2 != 0:
        raise ValueError("point must be a flat (x, xi) vector of even length")
    n = pt.size // 2
    return complex(e.ev(pt[:n].reshape(n, 1), pt[n:].reshape(n, 1))[0])
