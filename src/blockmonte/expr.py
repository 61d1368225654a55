"""The function_spec language: a one-variable expression over x, checked by
its syntax tree, compiled into one numpy evaluator, and bounded on intervals
by interval arithmetic over the same tree (parse_function)."""

from __future__ import annotations

import ast
import math
from typing import Callable

import numpy as np


_FUNCTION_NAMESPACE = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan,
    "arcsin": np.arcsin, "arccos": np.arccos, "arctan": np.arctan,
    "sinh": np.sinh, "cosh": np.cosh, "tanh": np.tanh,
    "exp": np.exp, "log": np.log, "log2": np.log2, "log10": np.log10,
    "sqrt": np.sqrt, "cbrt": np.cbrt, "abs": np.abs,
    "floor": np.floor, "ceil": np.ceil,
    "pi": np.pi, "e": np.e,
}

# The nodes a function_spec may hold as they are: arithmetic on its
# operands.  Numbers, names and calls are checked one by one (_unexpected).
_SPEC_NODES = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Load,
               ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow,
               ast.UAdd, ast.USub)

# Every enclosure node widens its bounds outward by this share of their
# larger magnitude, far above numpy's few-ulp error, plus the smallest normal.
_ENCLOSURE_RTOL = 2.0 ** -40
_SMALLEST_NORMAL = float(np.finfo(float).tiny)

# The increasing functions (arccos decreases).  Their domains are intervals,
# so an argument interval leaves a domain only at an end, where numpy gives
# nan or an infinity (log(0) = -inf), which bounds nothing.
_INCREASING = frozenset({"arctan", "sinh", "tanh", "exp", "cbrt", "floor", "ceil", "sqrt",
                         "log", "log2", "log10", "arcsin"})


def _spec_error(why) -> ValueError:
    return ValueError(f"invalid value for 'function_spec': {why}")


def _unexpected(node: ast.AST) -> str | None:
    """Why ``node`` may not appear in a function_spec; None if it may."""
    if isinstance(node, _SPEC_NODES):
        return None
    if isinstance(node, ast.Name):
        return None if node.id == "x" or node.id in _FUNCTION_NAMESPACE else (
            f"unknown name {node.id!r}")
    if isinstance(node, ast.Constant):
        return None if type(node.value) in (int, float) else f"{node.value!r} is not a real number"
    if isinstance(node, ast.Call):
        name = node.func.id if isinstance(node.func, ast.Name) else None
        if not callable(_FUNCTION_NAMESPACE.get(name)):
            return "only a named math function, such as sin, may be called"
        return None if len(node.args) == 1 and not node.keywords else (
            f"{name}() takes one positional argument")
    return f"{type(node).__name__} is not allowed"


# ---------------------------------------------------------------------------
# enclosures: interval arithmetic over the checked tree (Moore, Kearfott and
# Cloud, Introduction to Interval Analysis, SIAM 2009).  Each node bounds the
# values f's own numpy evaluation takes, given its operands' bounds, then
# widens outward to absorb the rounding of both; a bound pair is finite or
# (-inf, inf), which bounds nothing, and an unbounded operand leaves its
# node unbounded.


def _outward(lower, upper, *operands):
    """[lower, upper] widened outward; (-inf, inf) where a bound is not
    finite after widening (overflow, nan) or an operand is unbounded."""
    margin = np.maximum(np.abs(lower), np.abs(upper)) * _ENCLOSURE_RTOL + _SMALLEST_NORMAL
    lower = lower - margin
    upper = upper + margin
    bounded = np.isfinite(lower) & np.isfinite(upper)
    for operand_lower, _ in operands:
        bounded &= np.isfinite(operand_lower)
    return np.where(bounded, lower, -np.inf), np.where(bounded, upper, np.inf)


def _crosses(lower, upper, phase: float, period: float) -> np.ndarray:
    """Where [lower, upper] may hold a point phase + k * period, k whole; the
    slack, far above the rounding of (x - phase) / period, counts a point
    near either end as inside."""
    t_lower = (lower - phase) / period
    t_upper = (upper - phase) / period
    slack = (1.0 + np.abs(t_lower) + np.abs(t_upper)) * _ENCLOSURE_RTOL
    return np.floor(t_upper + slack) >= np.ceil(t_lower - slack)


def _even_bounds(fn, lower, upper) -> tuple:
    """Bounds of an even fn that grows with |x|: abs, cosh, even powers."""
    at_lower, at_upper = fn(lower), fn(upper)
    least = np.where(lower >= 0, at_lower,
                     np.where(upper <= 0, at_upper, fn(np.zeros_like(lower))))
    return least, np.maximum(at_lower, at_upper)


def _whole_exponent(node: ast.AST) -> float | None:
    """n of ``base ** n`` when n is a whole-number constant, signed or not."""
    sign = 1.0
    if isinstance(node, ast.UnaryOp):
        sign = -1.0 if isinstance(node.op, ast.USub) else 1.0
        node = node.operand
    if isinstance(node, ast.Constant) and float(node.value).is_integer():
        return sign * node.value
    return None


def _call_bounds(name: str, lower, upper) -> tuple:
    """Bounds of name(v) for v in [lower, upper], before widening."""
    fn = _FUNCTION_NAMESPACE[name]
    if name in _INCREASING:
        return fn(lower), fn(upper)
    if name == "arccos":
        return fn(upper), fn(lower)
    if name in ("abs", "cosh"):
        return _even_bounds(fn, lower, upper)
    at_lower, at_upper = fn(lower), fn(upper)
    if name == "tan":  # increasing within one branch, between two poles
        pole = _crosses(lower, upper, np.pi / 2, np.pi)
        return np.where(pole, np.nan, at_lower), np.where(pole, np.nan, at_upper)
    # sin and cos: the end values, or +-1 where a peak or trough may lie inside
    peak = np.pi / 2 if name == "sin" else 0.0
    return (np.where(_crosses(lower, upper, peak + np.pi, 2 * np.pi), -1.0,
                     np.minimum(at_lower, at_upper)),
            np.where(_crosses(lower, upper, peak, 2 * np.pi), 1.0,
                     np.maximum(at_lower, at_upper)))


def _power_bounds(lower, upper, n: float) -> tuple:
    """Bounds of v ** n for v in [lower, upper], n whole, before widening."""
    k = abs(n)
    if k % 2:
        bounds = np.power(lower, k), np.power(upper, k)
    else:
        bounds = _even_bounds(lambda v: np.power(v, k), lower, upper)
    if n < 0:  # the reciprocal of a zero-free power
        least, most = bounds
        zero_free = (least > 0) | (most < 0)
        bounds = np.where(zero_free, 1.0 / most, np.nan), np.where(zero_free, 1.0 / least, np.nan)
    return bounds


def _enclosure(node: ast.AST, lower, upper) -> tuple:
    """Bounds on the values f's evaluation of ``node`` takes at the x in
    [lower, upper], elementwise over the finite arrays lower and upper."""
    if isinstance(node, ast.Name) and node.id == "x":
        return lower, upper
    if isinstance(node, ast.UnaryOp):
        least, most = _enclosure(node.operand, lower, upper)
        return (-most, -least) if isinstance(node.op, ast.USub) else (least, most)
    value = node.value if isinstance(node, ast.Constant) else _FUNCTION_NAMESPACE.get(
        getattr(node, "id", None))
    if isinstance(value, float):  # a number, pi or e: exact, unless it is inf
        bound = np.full_like(lower, value)
        return (bound, bound) if math.isfinite(value) else _outward(bound, bound)
    operands, bounds = (), (np.full_like(lower, np.nan),) * 2
    if isinstance(node, ast.Call):
        operands = (_enclosure(node.args[0], lower, upper),)
        bounds = _call_bounds(node.func.id, *operands[0])
    elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
          and (n := _whole_exponent(node.right)) is not None):
        operands = (_enclosure(node.left, lower, upper),)
        bounds = _power_bounds(*operands[0], n)
    elif isinstance(node, ast.BinOp) and isinstance(node.op,
                                                    (ast.Add, ast.Sub, ast.Mult, ast.Div)):
        operands = (_enclosure(node.left, lower, upper), _enclosure(node.right, lower, upper))
        (l1, u1), (l2, u2) = operands
        if isinstance(node.op, ast.Add):
            bounds = l1 + l2, u1 + u2
        elif isinstance(node.op, ast.Sub):
            bounds = l1 - u2, u1 - l2
        else:
            op = np.multiply if isinstance(node.op, ast.Mult) else np.divide
            ends = np.array([op(l1, l2), op(l1, u2), op(u1, l2), op(u1, u2)])
            bounds = ends.min(axis=0), ends.max(axis=0)
            if isinstance(node.op, ast.Div):  # a divisor that may be 0 bounds nothing
                zero_free = (l2 > 0) | (u2 < 0)
                bounds = tuple(np.where(zero_free, bound, np.nan) for bound in bounds)
    # //, %, other powers and any node without a rule stay at nan: unbounded
    return _outward(*bounds, *operands)


def parse_function(spec: str) -> Callable[[object], np.ndarray]:
    """Compile a one-variable expression such as ``x**2*sin(x) + cbrt(x)``.

    The spec may hold x, the names of _FUNCTION_NAMESPACE (a function called
    on one positional argument), int and float numbers, all compiled as
    floats, + - * / // % ** and unary + -.  The result f is the one
    evaluator of a function_spec: f(x) computes on np.asarray(x, dtype=float),
    warnings off, a float array of x's shape; it raises ValueError naming
    function_spec on an ArithmeticError or TypeError (a complex value is
    one), or on a value that is not finite.  ``f.enclose(lower, upper)``
    returns bounds (L, U), elementwise over float arrays, on every value f
    computes at an x in [lower, upper]; (-inf, inf) where it finds none, as
    for // and %, powers other than whole constants, poles and points out of
    a function's domain, where f may not be finite.
    """
    try:
        tree = ast.parse(spec, mode="eval")
        for node in ast.walk(tree):
            why = _unexpected(node)
            if why:
                raise _spec_error(why)
            if isinstance(node, ast.Constant):
                node.value = float(node.value)
        code = compile(tree, "<function_spec>", "eval")
    except SyntaxError as exc:
        raise _spec_error(exc.msg) from None
    except OverflowError:
        raise _spec_error("a number is too large for a float") from None
    except (RecursionError, MemoryError):
        raise _spec_error("expression is nested too deeply") from None

    def f(x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        try:
            with np.errstate(all="ignore"):
                value = eval(code, {"__builtins__": {}}, {**_FUNCTION_NAMESPACE, "x": x})
            values = np.broadcast_to(value, x.shape).astype(float, casting="safe", copy=False)
        except (ArithmeticError, TypeError) as exc:
            raise _spec_error(f"{type(exc).__name__}: {exc}") from None
        finite = np.isfinite(values)
        if not finite.all():
            raise _spec_error(f"not finite at x = {float(x[~finite][0])!r}")
        return values

    def enclose(lower, upper) -> tuple[np.ndarray, np.ndarray]:
        lower, upper = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
        try:
            with np.errstate(all="ignore"):
                return _enclosure(tree.body, lower, upper)
        except RecursionError:  # a tree nested too deeply to walk bounds nothing
            return np.full_like(lower, -np.inf), np.full_like(lower, np.inf)

    f.enclose = enclose
    return f
