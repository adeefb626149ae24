"""Artifact-store addresses: complete, and stable where they were right.

Every stored artifact is keyed by the inputs its compute function is
called with (``RenderService.memo``). Two things follow and are pinned
here:

- a setup that differs in *any* config or cost field is a different
  ``result`` (and a GPU cost change is a different ``chopin-prep``);
  the old hand-written field lists missed the switch latency, the
  watchdog budget and the GPU's SM/ROP counts;
- the geometry, reference, projection and plan addresses are the bytes
  they were before the memo API, so disk spills stay valid.
"""

import hashlib
from dataclasses import replace

import pytest

from repro.errors import WatchdogError
from repro.harness import make_setup, run
from repro.harness.runner import Setup
from repro.sfr import Chopin
from repro.timing.costs import CostModel
from repro.traces import load_benchmark


@pytest.fixture(scope="module")
def wolf():
    return load_benchmark("wolf", "tiny")


class TestStaleResultHit:
    def test_switch_latency_is_part_of_the_result_key(self, fresh_service,
                                                      wolf):
        setup = make_setup("tiny", num_gpus=4, topology="switch")
        fast = run("chopin", wolf, setup)
        link = setup.config.link
        slow_setup = setup.replace_config(
            link=replace(link, switch_latency_cycles=5000))
        slow = run("chopin", wolf, slow_setup)
        uncached = run("chopin", wolf, slow_setup, use_cache=False)
        assert slow.frame_cycles == uncached.frame_cycles
        assert slow.frame_cycles > fast.frame_cycles

    def test_watchdog_budget_is_part_of_the_result_key(self, fresh_service,
                                                       wolf):
        setup = make_setup("tiny", num_gpus=4, topology="switch")
        run("chopin", wolf, setup)
        with pytest.raises(WatchdogError):
            run("chopin", wolf, setup.replace_config(watchdog_cycles=10.0))

    def test_gpu_costs_are_part_of_the_prep_key(self, fresh_service, wolf):
        setup = make_setup("tiny", num_gpus=4)
        wide_gpu = replace(setup.config.gpu,
                           num_sms=2 * setup.config.gpu.num_sms)
        wide = Setup(scale="tiny",
                     config=replace(setup.config, gpu=wide_gpu),
                     costs=replace(setup.costs, gpu=wide_gpu))
        narrow_prep = Chopin(setup.config, setup.costs)._functional_pass(
            wolf)
        wide_prep = Chopin(wide.config, wide.costs)._functional_pass(wolf)
        assert wide_prep is not narrow_prep
        narrow_work = narrow_prep.groups[0].works[0][0]
        wide_work = wide_prep.groups[0].works[0][0]
        assert wide_work.geometry_cycles == narrow_work.geometry_cycles / 2

    def test_setup_fingerprint_ignores_origin_only(self):
        setup = make_setup("tiny", num_gpus=4)
        rebuilt = Setup(scale=setup.scale, config=setup.config,
                        costs=setup.costs)
        assert rebuilt.fingerprint == setup.fingerprint
        assert setup.replace_config(pixel_bytes=4).fingerprint \
            != setup.fingerprint
        assert Setup(scale="small", config=setup.config,
                     costs=setup.costs).fingerprint != setup.fingerprint
        assert Setup(scale="tiny", config=setup.config,
                     costs=CostModel(gpu=setup.config.gpu,
                                     draw_issue_cost=1.0)).fingerprint \
            != setup.fingerprint


#: kind -> (entry count, sha256 over the sorted keys) for chopin, gpupd
#: and duplication on wolf tiny with 4 GPUs. geometry, reference,
#: projection and plan are the addresses from before the memo API.
#: chopin-prep moved once, when its key gained the cost model's GPU
#: fields (num_sms, num_rops, ...) that the prep had always read.
PINNED_KEYS = {
    "geometry": (433, "46833fd37fcd1ea44193e8a073f5daae"
                      "4fcfd9e870930a98bb28d2ef4cf777ec"),
    "reference": (1, "eb3b595c7f0584f5e1bd524540ee4083"
                     "eb641fd94e6ae1eb01ca501b38bd8a2e"),
    "projection": (1, "e41f899c8465e9cb92d15ce4f2a0cf6e"
                      "1d43e3e301c8145c35b49cb75eb51d5b"),
    "plan": (1, "60420a3edece050dc240aa8dff531e4b"
                "6b22ff798f207474a5826acb5dda2fe0"),
    "chopin-prep": (1, "6f43cd5f16cbf3b034c9f2b5960742ba"
                       "e555a848e151a546688d540b644cf8fc"),
}


def test_store_key_bytes_are_pinned(fresh_service, monkeypatch, wolf):
    seen = set()
    get = fresh_service.store.get

    def spy(key):
        seen.add(key)
        return get(key)

    monkeypatch.setattr(fresh_service.store, "get", spy)
    setup = make_setup("tiny", num_gpus=4)
    for scheme in ("chopin", "gpupd", "duplication"):
        run(scheme, wolf, setup)
    for kind, (count, digest) in sorted(PINNED_KEYS.items()):
        keys = sorted(key for key in seen if key.startswith(kind + "-"))
        joined = "\n".join(keys).encode()
        assert (len(keys), hashlib.sha256(joined).hexdigest()) \
            == (count, digest), kind
