"""Byte-identity gate for the SPEC front end (synthesis + pipeline).

Every masking trace the Section-5 experiments consume comes out of
``synthesize_trace`` followed by ``simulate``. The digests below were
taken from the original per-record implementation; any rewrite of the
front end must reproduce them exactly: every mask array (dtype and
bytes) and every ``PipelineStats`` counter, for all 21 SPEC benchmarks
at a 4k-instruction window and seeds 0 and 1.

To print the table for the current code (only ever needed if the
simulated machine itself is meant to change)::

    PYTHONPATH=src python tests/test_frontend_identity.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.microarch import MachineConfig, simulate
from repro.workloads import (
    SPEC_FP_NAMES,
    SPEC_INT_NAMES,
    spec_benchmark,
    synthesize_trace,
)

WINDOW = 4_000
SEEDS = (0, 1)

#: ``{(benchmark, seed): sha256}`` of :func:`frontend_digest`.
PINNED = {
    ("gzip", 0): "e75123253df49291ea4c40c0feec26ba724c1b5bc712713a5bfa5067b6e7c0e5",
    ("gzip", 1): "6fe62a21632b3a6ac0d733be27f4927093ba9d1b4bd451cf5f7c71112eb12c3c",
    ("vpr", 0): "3a77b5322a742984d40a0948f71767ed7e0298bf880623a2566ba6ce40517ccd",
    ("vpr", 1): "743761f49626700cc34fdf08970fbb4323e05058c9d473bae3c59c5559bab625",
    ("gcc", 0): "b469309c0d107c811bfda86fc900db9c21099a82533096aa0ae3e9ea92bf6f92",
    ("gcc", 1): "53742fa02572b3fe79ba2b128ce58cfc1fe64133f593335c301a3dd9377e58fc",
    ("mcf", 0): "6c69ff1eae5e58c460b4c70611d1e3c49e57dbec4c1f119c46843bca6759af93",
    ("mcf", 1): "210e34ef01ea62880d3d21bd7592fcea194074268b609566187f53732f08827d",
    ("crafty", 0): "e6ab3e9d610938a0dd655450195d9a0ceedff5ae874b21990a21bce2bf401047",
    ("crafty", 1): "6bd25c5755607ef17b17c5f8b41bd16d69e26f9736d67a7772a96645990a717f",
    ("parser", 0): "27ab81238dfe7aa2ae92a5af22f974f2ea62144ae7071b1766de3831f5a1b5f8",
    ("parser", 1): "b4345be3649a048070dd57fcc66d71d614b1b64ee1425798bae34368ae83102b",
    ("perlbmk", 0): "cfbfdb85cf47d19f3bcb8e3ff678fe8d1be8167520c7d629a275531ceece23c6",
    ("perlbmk", 1): "b23c69d635ed047c13b3fa5d41eee22993cd86349fe37c0dd3d157925a34cab3",
    ("vortex", 0): "8b59b5c936e0a12b780b5e3870e9f06c181ede6cae43b8b9cd1a657745720490",
    ("vortex", 1): "96e6b7a399c42914aa063a859d33fc9f235aab79e5654a1b2b9c6ac8a8259a3b",
    ("bzip2", 0): "8e6b60ec975bf417d8d27b66d1ffc4eba31d440a8b2af143351bc9d8254782ff",
    ("bzip2", 1): "a81378f04ad3104f287e3214dcd466debba8c8b4156acab82262763c525325eb",
    ("wupwise", 0): "9c78724cd715c5f5b34c65b6f0d87201ab86f97c6515f987742bafc09a81a4b1",
    ("wupwise", 1): "01a81d1ab10504a60fb7952ca3e9c17a23b340068a525683170aa34ddb4d36ec",
    ("swim", 0): "1c980a3e555fec8f9a23128cc18a37365fbfd908bf69136b59f5d3f347719776",
    ("swim", 1): "6dbefcebf35e2a796106f871531a7aa7da0b1be7548e3173088578cd7ff0d2ca",
    ("mgrid", 0): "a48e2e08971e2c482517a95c9ad7793b7071c1bf457f2e57d28646ac1314a84c",
    ("mgrid", 1): "7f58945b7b2e3476ed3f17a0920df06f7c5aaea936399f15c27235e5f67c4651",
    ("applu", 0): "a672c148f69071a9d35fd71c7149b0b938118e787f21280b1de7f40da0fa2b1e",
    ("applu", 1): "e95ba6471de758d9460542a26c93eb6dc3632358f81c7a6ae31619f06b646ace",
    ("mesa", 0): "4b88ed384ef1260f5e127d92500e876700da73453d09319b998c6c5b84bd1f89",
    ("mesa", 1): "70c10103ec28083846a1faf974be7c31ab904d6c1460db8637a9fda38325acff",
    ("galgel", 0): "1d14f9a0f476e04412ab86369ad7b397ef6ebf483b94293916a3f8e04f730a46",
    ("galgel", 1): "2cda3dc3e1b37f44a2e3a05e2c4a457aa9851815512877a54554a9524efe816d",
    ("art", 0): "c487196cc1fb5a5f7f1f20f94d75f64022123c9ee0e5f5d903b1fc905a86a954",
    ("art", 1): "be039361520d492e38b9a8b1983885e705bd87b4eb11656b9c67645be826809c",
    ("equake", 0): "840c65e108430f802e3b8da9d0803973534da7d49bba798db3ca9833bcb1066d",
    ("equake", 1): "081d8429172c1d3dd3e63d40b99e8b6e86bc5286d12467d3bbcd4b62e32bd8a4",
    ("facerec", 0): "b1a61c8e140b1e699616d5e31cc79714d4bb59a7a96e917550b2e0bb5a7a1205",
    ("facerec", 1): "4046324123b5c7751c744dde88405ee81e4958def2de4219e9a8dd9e7c585e65",
    ("ammp", 0): "8012a807a88875ccf58fc80badba11a0c9d459a9dfe7ad3a41973fe64bdd2916",
    ("ammp", 1): "2d1186e4fb5cc5e2ea089855c1635407a348f671aff957def0510efa5fbde6ca",
    ("lucas", 0): "b2a5a0b63b32c24e2df91fc6e980bc451794b239bc0759768d25320ece3e2fbf",
    ("lucas", 1): "b521cff4e4ca27eda392076fbf0796ed7e14105fe37634d2a458f55cd24aa8b7",
    ("apsi", 0): "2d015276fa7f991a91b5002b4c2458fcf12d7628128fa236a5001bc9a508ed78",
    ("apsi", 1): "0b0656e5ab00b063f598aefe84c42aa0c825deb3c6c128ed62211d54667ae9ec",
}


def frontend_digest(benchmark: str, seed: int) -> str:
    """SHA-256 over every mask (name, dtype, bytes) and the stats."""
    trace = synthesize_trace(spec_benchmark(benchmark), WINDOW, seed=seed)
    result = simulate(trace, MachineConfig.power4_like(), workload=benchmark)
    masking = result.masking_trace
    digest = hashlib.sha256()
    for name in masking.component_names:
        mask = masking.mask(name)
        digest.update(name.encode())
        digest.update(str(mask.dtype).encode())
        digest.update(mask.tobytes())
    stats = json.dumps(dataclasses.asdict(result.stats), sort_keys=True)
    digest.update(stats.encode())
    return digest.hexdigest()


CASES = [
    (name, seed)
    for name in (*SPEC_INT_NAMES, *SPEC_FP_NAMES)
    for seed in SEEDS
]


@pytest.mark.parametrize("workload,seed", CASES)
def test_masks_and_stats_match_pinned_digest(workload, seed):
    assert frontend_digest(workload, seed) == PINNED[(workload, seed)]


if __name__ == "__main__":
    for name, seed in CASES:
        print(f'    ("{name}", {seed}): "{frontend_digest(name, seed)}",')
