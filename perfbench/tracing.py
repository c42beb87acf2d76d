"""In-memory spans around cwrmt's layer boundaries, for the traced run.

`install` wraps public functions at their module attributes (and the
mixing-measure methods on their class), so every call the CLI or the library
makes through those names records a span.  Spans are kept in a list and
written out by the caller when the operation ends.  Only the benchmark's child
process imports this module, and only for a traced run.
"""

import contextvars
import functools
import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor

# one span: id, parent span id, name, start, end, thread name, op id,
# exception type name (or None) and counters
FIELDS = ("id", "parent", "name", "start", "end", "thread", "op", "error",
          "counts")


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = 0
        self.pool_threads = []  # worker threads seen per executor
        self.missing = []  # layer names install() found nothing to wrap for
        self._current = contextvars.ContextVar("perfbench_span", default=None)
        self._ids = itertools.count(1)

    def wrap(self, name, fn, counts=None):
        """`fn` with a span around each call; `counts(args, kwargs, result)`
        returns the counters to attach to the span."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = next(self._ids), self._current.get()
            token = self._current.set(sid)
            op, err, result = self.op, None, None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                err = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                self._current.reset(token)
                c = None
                if counts and err is None:
                    try:
                        c = counts(args, kwargs, result)
                    except (LookupError, AttributeError, TypeError):
                        pass  # the call's signature changed: span uncounted
                self.spans.append((sid, parent, name, start, end,
                                   threading.current_thread().name, op, err,
                                   c))
        return traced

    def executor_class(self):
        """A ThreadPoolExecutor whose tasks run in the submitter's context, so
        spans in pool threads get the submitting span as parent."""
        tracer = self

        class TracedExecutor(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self._perfbench_threads = set()
                tracer.pool_threads.append(self._perfbench_threads)

            def submit(self, fn, /, *args, **kwargs):
                ctx = contextvars.copy_context()
                seen = self._perfbench_threads

                def task():
                    seen.add(threading.current_thread().name)
                    return fn(*args, **kwargs)
                return super().submit(ctx.run, task)

        return TracedExecutor

    def records(self):
        return [dict(zip(FIELDS, s)) for s in self.spans]


def install(tracer):
    """Wrap cwrmt's layer entry points in place.  A name the package no
    longer has is skipped and listed in tracer.missing."""
    from cwrmt import circuits, cli, correlations, definetti, ensembles, \
        spectral

    def patch(owner, attr, name, counts=None):
        orig = getattr(owner, attr, None)
        if orig is None:
            tracer.missing.append(name)
        elif isinstance(orig, property):
            setattr(owner, attr, property(tracer.wrap(name, orig.fget,
                                                      counts)))
        else:
            setattr(owner, attr, tracer.wrap(name, orig, counts))

    patch(ensembles, "sample_matrix", "ensembles.sample",
          lambda a, kw, r: {"spins": a[0].N * (a[0].N + 1) // 2})
    patch(ensembles, "sample_full_cw_batch", "ensembles.batch_sample")
    patch(ensembles.ScaledMatrix, "values", "ensembles.cast",
          lambda a, kw, r: {"bytes": 8 * a[0].source.N ** 2})
    patch(spectral, "eigenvalues", "spectral.eig")
    patch(spectral, "summarize", "spectral.stats")
    measure = definetti.DeFinettiMeasure
    patch(measure, "__init__", "definetti.build",
          lambda a, kw, r: {"cdf_table_len": len(a[0].cdf_table[0])})
    patch(measure, "moment", "definetti.moment")
    patch(measure, "sample_t", "definetti.sample_t")
    patch(circuits, "enumerate_classes", "circuits.enumerate",
          lambda a, kw, r: {"k": a[0], "classes": len(r)})
    patch(circuits, "exact_trace_moment", "circuits.exact_moment")
    patch(circuits, "verify_simple_edge_bound", "circuits.verify")
    patch(correlations, "mc_trace_moment", "correlations.mc_trace",
          lambda a, kw, r: {"matrices": a[3] if len(a) > 3
                            else kw["replicas"]})
    patch(cli, "run", "cli.run")
    if hasattr(cli, "ThreadPoolExecutor"):
        cli.ThreadPoolExecutor = tracer.executor_class()
    else:
        tracer.missing.append("cli.ThreadPoolExecutor")
