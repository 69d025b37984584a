import gc
import sys
import weakref
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from tracer import Tracer, child_counts, summarize  # noqa: E402


def _clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_subtracts_direct_children():
    tracer = Tracer(clock=_clock([0.0, 1.0, 3.0, 4.0, 6.5, 10.0]))
    inner = tracer.wrap("inner", lambda: None)

    def body():
        inner()
        inner()

    tracer.wrap("outer", body)()
    stats = summarize(tracer.names, tracer.spans)
    assert stats["outer"] == {"calls": 1, "total_s": 10.0, "self_s": 5.5}
    assert stats["inner"] == {"calls": 2, "total_s": 4.5, "self_s": 4.5}


def test_self_time_ignores_grandchildren():
    # (id, parent, name id, start, end): a -> b -> c
    names = ["a", "b", "c"]
    spans = [(3, 2, 2, 2.0, 3.0), (2, 1, 1, 1.0, 5.0), (1, 0, 0, 0.0, 8.0)]
    stats = summarize(names, spans)
    assert stats["a"]["self_s"] == 4.0
    assert stats["b"]["self_s"] == 3.0
    assert stats["c"]["self_s"] == 1.0
    assert child_counts(names, spans, "a", "b") == 1
    assert child_counts(names, spans, "a", "c") == 0


def test_span_recorded_when_call_raises():
    tracer = Tracer(clock=_clock([0.0, 2.0]))

    def boom():
        raise ValueError("x")

    try:
        tracer.wrap("boom", boom)()
    except ValueError:
        pass
    assert summarize(tracer.names, tracer.spans)["boom"]["calls"] == 1
    assert tracer._stack == [0]


def test_spans_keep_no_reference_to_arguments():
    class Arg:
        pass

    tracer = Tracer()
    arg = Arg()
    ref = weakref.ref(arg)
    tracer.wrap("f", lambda a: a)(arg)
    del arg
    gc.collect()
    assert ref() is None


def test_install_wraps_every_binding_and_restore_undoes_it():
    from slicehardy import atomic, cli, maximal, orlicz, slice_norms
    from slicehardy.grid import GridFunction

    before = {
        "atomic.cz_decompose": atomic.cz_decompose,
        "cli.cz_decompose": cli.cz_decompose,
        "atomic.slice_norm": atomic.slice_norm,
        "maximal.convolve": maximal.convolve,
        "check": cli.CHECKS["norms"],
        "call": orlicz.OrliczFunction.__call__,
        "centers": GridFunction.centers,
    }
    tracer = Tracer().install()
    try:
        assert cli.cz_decompose is atomic.cz_decompose
        assert atomic.cz_decompose is not before["atomic.cz_decompose"]
        assert atomic.slice_norm is slice_norms.slice_norm
        assert atomic.slice_norm is not before["atomic.slice_norm"]
        assert maximal.convolve is not before["maximal.convolve"]
        assert cli.CHECKS["norms"] is not before["check"]
        phi = orlicz.log_damped()
        f = GridFunction((0.0,), 0.25, np.array([1.0, 2.0, 0.5]))
        value = orlicz.luxemburg_norm(phi, f)
    finally:
        tracer.restore()
    assert value > 0
    stats = summarize(tracer.names, tracer.spans)
    assert stats["orlicz.luxemburg_norm"]["calls"] == 1
    assert tracer.counters["orlicz.phi_evals"] > 0
    assert tracer.counters["orlicz.phi_points"] \
        == 3 * tracer.counters["orlicz.phi_evals"]
    assert atomic.cz_decompose is before["atomic.cz_decompose"]
    assert cli.cz_decompose is before["cli.cz_decompose"]
    assert atomic.slice_norm is before["atomic.slice_norm"]
    assert maximal.convolve is before["maximal.convolve"]
    assert cli.CHECKS["norms"] is before["check"]
    assert orlicz.OrliczFunction.__call__ is before["call"]
    assert GridFunction.centers is before["centers"]
