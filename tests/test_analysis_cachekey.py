"""Cache-key soundness, by construction: ``RenderService.memo``.

``memo(kind, fn, **inputs)`` returns ``fn(**inputs)`` and derives the
store key from exactly those inputs, so the two bug classes a static
pass used to hunt for cannot be written any more:

- a compute that reads an input its key leaves out needs a closure or a
  bound ``self`` to reach it, and memo refuses both;
- a key field the compute does not take is an unexpected keyword
  argument, and the call fails.

The meta-tests seed both mutations into the live render path and
require them to fail.
"""

import functools

import pytest

from repro.harness import make_setup, run
from repro.render import store_key
from repro.render.service import memo_fields
from repro.traces import load_benchmark


class _Fingerprinted:
    def __init__(self, fingerprint):
        self.fingerprint = fingerprint
        self.frame = [1, 2, 3]


def _scaled(trace, salt):
    return [value * salt for value in trace.frame]


# ------------------------------------------------------- cache-key-missing


class TestCacheKeyMissing:
    def test_unkeyed_read_flagged(self, fresh_service):
        trace, salt = _Fingerprinted("t"), 3
        with pytest.raises(TypeError, match="closure"):
            fresh_service.memo("frame", lambda trace: _scaled(trace, salt),
                               trace=trace)

    def test_covered_reads_are_clean(self, fresh_service):
        trace = _Fingerprinted("t")
        assert fresh_service.memo("frame", _scaled, trace=trace,
                                  salt=3) == [3, 6, 9]
        assert fresh_service.memo("frame", _scaled, trace=trace,
                                  salt=4) == [4, 8, 12]
        assert fresh_service.memo("frame", _scaled, trace=trace,
                                  salt=3) == [3, 6, 9]
        counters = fresh_service.counters()
        assert (counters.misses, counters.hits) == (2, 1)

    def test_fingerprint_field_covers_object_read(self):
        # an object input keys as its fingerprint, whatever else it holds
        fields = memo_fields({"trace": _Fingerprinted("abc"), "salt": 3})
        assert fields == {"trace": "abc", "salt": 3}

    def test_nested_def_compute(self, fresh_service):
        trace, salt = _Fingerprinted("t"), 3

        def capturing(trace):
            return _scaled(trace, salt)

        def self_contained(trace, salt):
            return _scaled(trace, salt)

        with pytest.raises(TypeError, match="closure"):
            fresh_service.memo("frame", capturing, trace=trace)
        assert fresh_service.memo("frame", self_contained, trace=trace,
                                  salt=salt) == [3, 6, 9]

    def test_forwarded_fields_parameter_skipped(self, fresh_service):
        # a functools.wraps wrapper that forwards verbatim is judged by
        # the function it wraps
        @functools.wraps(_scaled)
        def forwarding(*args, **kwargs):
            return _scaled(*args, **kwargs)

        assert fresh_service.memo("frame", forwarding,
                                  trace=_Fingerprinted("t"),
                                  salt=2) == [2, 4, 6]

    def test_bound_method_refused(self, fresh_service):
        holder = _Fingerprinted("t")
        with pytest.raises(TypeError, match="bound self"):
            fresh_service.memo("frame", holder.__init__, fingerprint="x")

    def test_unaddressable_input_refused(self, fresh_service):
        with pytest.raises(TypeError, match="not a JSON scalar"):
            fresh_service.memo("frame", _scaled, trace=_Fingerprinted("t"),
                               salt=[3])


# -------------------------------------------------------- cache-key-unused


class TestCacheKeyUnused:
    def test_unread_field_flagged(self, fresh_service):
        def load(trace):
            return trace.frame

        with pytest.raises(TypeError, match="salt"):
            fresh_service.memo("frame", load, trace=_Fingerprinted("t"),
                               salt=3)


class TestInputsRecord:
    def test_frozen_record_contributes_its_fields(self):
        from repro.config import GPUConfig
        fields = memo_fields({"trace": _Fingerprinted("t"),
                              "gpu": GPUConfig()})
        assert fields["trace"] == "t"
        assert fields["num_sms"] == GPUConfig().num_sms
        assert "gpu" not in fields

    def test_record_key_matches_spelled_out_fields(self):
        from repro.config import GPUConfig
        gpu = GPUConfig(num_sms=16)
        spelled = {name: getattr(gpu, name)
                   for name in gpu.__dataclass_fields__}
        assert store_key("k", memo_fields({"gpu": gpu})) \
            == store_key("k", spelled)

    def test_mutable_dataclass_refused(self):
        from repro.faults.plan import DegradedWindow  # frozen
        from repro.stats import GPUStats            # mutable
        memo_fields({"window": DegradedWindow(0.0, 1.0, 0.5)})
        with pytest.raises(TypeError):
            memo_fields({"stats": GPUStats()})

    def test_duplicate_field_refused(self):
        from repro.config import GPUConfig
        with pytest.raises(TypeError, match="twice"):
            memo_fields({"num_sms": 8, "gpu": GPUConfig()})


# ------------------------------------------------------ seeded mutations


class TestCacheKeyMeta:
    def test_unkeyed_input_in_render_session_is_found(self, fresh_service,
                                                      monkeypatch):
        # the geometry artifact starts depending on a jitter the key does
        # not cover: the only way to reach it is a closure, which memo
        # refuses, so the mutated render path fails on its first draw
        from repro.render.phases import geometry_phase
        from repro.render.service import RenderSession

        def jittered_artifact(self, draw):
            jitter = self.jitter
            return self.service.memo(
                "geometry",
                lambda draw, camera, width, height: geometry_phase(
                    draw, camera, width + jitter, height),
                draw=draw, camera=self.camera, width=self.width,
                height=self.height)

        monkeypatch.setattr(RenderSession, "jitter", 0, raising=False)
        monkeypatch.setattr(RenderSession, "artifact", jittered_artifact)
        trace = load_benchmark("wolf", "tiny")
        with pytest.raises(TypeError, match="closure"):
            run("duplication", trace, make_setup("tiny", num_gpus=2),
                use_cache=False)

    def test_dead_key_field_is_found(self, fresh_service):
        # a key field the compute does not take: the call cannot be made
        trace = load_benchmark("wolf", "tiny")

        def probe(trace):
            return trace.frame

        with pytest.raises(TypeError, match="salt"):
            fresh_service.memo("probe", probe, trace=trace, salt=3)
