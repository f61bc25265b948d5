"""Regenerate ``digests.json``: the digests the benchmark checks against.

For every workload and input variant, runs the workload's artifacts once
at paper scale, *without* any disk cache and from empty in-process
caches, and records the SHA-256 of each artifact's canonical
``ResultSet`` JSON. The cold workload's passes, which write a disk
cache, are therefore checked against uncached runs.

Run from the checkout root (about three minutes on a 2-CPU host)::

    python3 perfbench/pin_digests.py

Only rerun it when a change is meant to alter results.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(Path.cwd() / "src"))
sys.path.insert(1, str(HERE))

import workloads  # noqa: E402
from repro.harness.registry import get_experiment  # noqa: E402


def main() -> int:
    scale = workloads.SCALES["paper"]
    workloads.apply_scale(scale)
    digests: dict = {}
    for name in workloads.WORKLOADS:
        for variant in range(workloads.VARIANTS):
            inputs = workloads.inputs_for(variant)
            workloads.clear_trace_cache_and_plans()
            row = {}
            for artifact, kwargs in workloads.artifact_calls(
                name, inputs, scale, None
            ):
                result = get_experiment(artifact).run(**kwargs)
                row[artifact] = workloads.digest(result.result_set)
            digests.setdefault(name, {})[str(variant)] = row
            print(name, variant, row, flush=True)
    document = {
        "scale": scale.name,
        "variants": workloads.VARIANTS,
        "digests": digests,
    }
    workloads.DIGESTS_PATH.write_text(
        json.dumps(document, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
