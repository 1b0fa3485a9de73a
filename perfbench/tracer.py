"""Per-layer spans around the public functions of ``simplest_cubic``.

The tracer wraps each traced function and re-binds the wrapper in every
``simplest_cubic`` module that holds the function under any name (``factor``
is bound in ``arith``, ``invariants``, ``eisenstein`` and ``gaussian``;
``integral_basis.build`` is ``build_integral_basis`` in ``cli``).  The
program's source is not touched.  Spans are aggregated in memory as they
close: calls, self time (span minus the spans of its direct children), the
caller of each call, and the exceptions raised.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

# span name -> (module, [function names]); all format_* share one span.
TRACED = {
    "arith.factor": ("arith", ["factor"]),
    "invariants.conductor": ("invariants", ["conductor"]),
    "eisenstein.find_pair": ("eisenstein", ["find_pair"]),
    "nib.all_generators": ("nib", ["all_generators"]),
    "nib.generator": ("nib", ["generator"]),
    "nib.verify_nib": ("nib", ["verify_nib"]),
    "cubic_field.trace_form_disc": ("cubic_field", ["trace_form_disc"]),
    "cubic_field.numeric_roots": ("cubic_field", ["numeric_roots"]),
    "integral_basis.build": ("integral_basis", ["build"]),
    "gaussian.period_identity": ("gaussian", ["period_identity"]),
    "gaussian.numeric_periods": ("gaussian", ["numeric_periods"]),
    "gaussian.numeric_verify": ("gaussian", ["numeric_verify"]),
    "render.format": ("render", ["format_rational", "format_element",
                                 "format_poly", "format_integer_factored"]),
}

ROOT = "cli"
PACKAGE = "simplest_cubic"


class Tracer:
    """Install with ``install()``, time each op with ``op_begin``/``op_end``,
    and restore the program with ``uninstall()``."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.callers: Counter[tuple[str, str]] = Counter()
        self.errors: Counter[tuple[str, str]] = Counter()
        self.periods_terms = 0
        self.periods_bits_max = 0
        self._stack: list[list] = []
        self._bindings: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for span, (module, names) in TRACED.items():
            for name in names:
                fn = getattr(sys.modules[f"{PACKAGE}.{module}"], name)
                wrapper = self._wrap(span, fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._bindings.append((mod, attr, fn))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._bindings):
            setattr(mod, attr, fn)
        self._bindings.clear()

    def op_begin(self) -> None:
        self._stack.append([ROOT, 0.0])

    def op_end(self, seconds: float) -> None:
        root = self._stack.pop()
        self.calls[ROOT] += 1
        self.self_s[ROOT] += seconds - root[1]

    def _wrap(self, span: str, fn):
        stack = self._stack
        calls, self_s, callers = self.calls, self.self_s, self.callers
        on_call = self._periods_args(fn) if span == "gaussian.numeric_periods" else None

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            frame = [span, 0.0]
            callers[(stack[-1][0] if stack else ROOT, span)] += 1
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                self.errors[(span, type(exc).__name__)] += 1
                raise
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                calls[span] += 1
                self_s[span] += elapsed - frame[1]

        return traced

    def _periods_args(self, fn):
        signature = inspect.signature(fn)

        def on_call(args, kwargs) -> None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            self.periods_terms += bound.arguments["f"] - 1
            self.periods_bits_max = max(self.periods_bits_max,
                                        bound.arguments["precision_bits"])

        return on_call
