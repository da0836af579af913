"""Run-time span tracer for the cellfree_maxmin package.

The tracer wraps the package's public functions from outside, at run time,
and edits no source. Each hook names its entry point by a dotted path that is
resolved when the tracer is installed:

  "netgen.generate_instance"       a module-level function; every module of
                                   the package that bound the same object
                                   (``from .netgen import generate_instance``)
                                   is rebound to the wrapper too
  "kernels.IMPL.rate_apg_step"     a field of a NamedTuple held by a module;
                                   the tuple is swapped for a copy whose field
                                   is the wrapper (the solvers read
                                   ``kernels.IMPL`` at call time)

A path that does not resolve is recorded as *absent*: it is neither raised nor
reported as zero, so the benchmark keeps running after a refactor renames or
removes an entry point.

Spans nest through a stack. Each span adds its duration to its parent's child
time, so a name's self time is its total time minus the part its hooked
children cover. Spans are reduced online into per-name aggregates (calls,
total, self, and for chosen names the individual durations); a paper-scale
run makes about a million kernel calls, too many to keep one record each.
"""

import importlib
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

PACKAGE = "cellfree_maxmin"


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: Optional[List[float]] = None


@dataclass
class Hook:
    """One traced entry point.

    path       dotted path below the package, as described in the module doc
    span       span name (defaults to the path without a container segment)
    on_call    f(tracer, args, kwargs), run before the call while tracing
    on_result  f(tracer, result, args, kwargs), run after a call returns
    generator  the entry point returns an iterator; each next() is a span
    keep_durations  keep every duration of this span (for percentiles)
    rename     {parent span name: span name}; a call made directly under that
               parent is recorded under the other name (one loop serves two
               layers, and each should be charged its own share)
    """

    path: str
    span: Optional[str] = None
    on_call: Optional[Callable] = None
    on_result: Optional[Callable] = None
    generator: bool = False
    keep_durations: bool = False
    rename: Dict[str, str] = field(default_factory=dict)

    @property
    def name(self) -> str:
        if self.span:
            return self.span
        parts = self.path.split(".")
        return ".".join([parts[0], parts[-1]])


@dataclass
class Tracer:
    hooks: List[Hook]
    clock: Callable[[], float] = time.perf_counter
    enabled: bool = True
    stats: Dict[str, SpanStats] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    absent: List[str] = field(default_factory=list)
    _stack: List[list] = field(default_factory=list)  # [child seconds, name]
    _restore: List[Callable[[], None]] = field(default_factory=list)

    # -- recording -----------------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def mark_absent(self, name: str) -> None:
        if name not in self.absent:
            self.absent.append(name)

    def _stat(self, name: str, keep: bool) -> SpanStats:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = SpanStats(durations=[] if keep else None)
        return stat

    def _timed(self, hook: Hook, call: Callable):
        name = hook.name
        if hook.rename and self._stack:
            name = hook.rename.get(self._stack[-1][1], name)
        frame = [0.0, name]
        self._stack.append(frame)
        t0 = self.clock()
        try:
            return call()
        finally:
            dt = self.clock() - t0
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += dt
            stat = self._stat(name, hook.keep_durations)
            stat.calls += 1
            stat.total_s += dt
            stat.self_s += dt - frame[0]
            if stat.durations is not None:
                stat.durations.append(dt)

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, hook: Hook, fn: Callable) -> Callable:
        tracer = self

        if hook.generator:
            def next_spans(iterator):
                while True:
                    try:
                        item = tracer._timed(hook, lambda: next(iterator))
                    except StopIteration:
                        return
                    if hook.on_result is not None:
                        hook.on_result(tracer, item, (), {})
                    yield item

            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return fn(*args, **kwargs)
                return next_spans(iter(fn(*args, **kwargs)))
        else:
            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return fn(*args, **kwargs)
                if hook.on_call is not None:
                    hook.on_call(tracer, args, kwargs)
                result = tracer._timed(hook, lambda: fn(*args, **kwargs))
                if hook.on_result is not None:
                    hook.on_result(tracer, result, args, kwargs)
                return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", hook.name)
        return wrapper

    def _install_function(self, hook: Hook, module, attr: str) -> None:
        original = getattr(module, attr, None)
        if not callable(original):
            self.mark_absent(hook.path)
            return
        wrapper = self._wrap(hook, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._restore.append(lambda m=mod, k=key, v=original: setattr(m, k, v))

    def _install_field(self, hook: Hook, module, holder: str, attr: str) -> None:
        table = getattr(module, holder, None)
        original = getattr(table, attr, None)
        if not (callable(original) and hasattr(table, "_replace")):
            self.mark_absent(hook.path)
            return
        setattr(module, holder, table._replace(**{attr: self._wrap(hook, original)}))
        self._restore.append(lambda m=module, h=holder, t=table: setattr(m, h, t))

    def install(self) -> "Tracer":
        """Resolve every hook path and put its wrapper in place."""
        for hook in self.hooks:
            parts = hook.path.split(".")
            try:
                module = importlib.import_module(f"{PACKAGE}.{parts[0]}")
            except ImportError:
                self.mark_absent(hook.path)
                continue
            if len(parts) == 2:
                self._install_function(hook, module, parts[1])
            elif len(parts) == 3:
                self._install_field(hook, module, parts[1], parts[2])
            else:
                raise ValueError(f"hook path {hook.path!r} must have 2 or 3 parts")
        return self

    def uninstall(self) -> None:
        # undo in reverse so a field swapped twice ends at the first original
        while self._restore:
            self._restore.pop()()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()
