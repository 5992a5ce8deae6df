"""Layer-scope attribution for pipeline (model) parallelism (section 6.7).

The fleet search (``repro.fleet``) splits the layer stack into contiguous
pipeline stages and prices each stage from per-scope times.  This module
names the stackable layer scopes of a graph and charges every schedule
unit -- measured or analytic -- to the scope that owns it, so the time of
any group of scopes is a sum over one executed mini-batch.
"""

from __future__ import annotations

from ..baselines.native import native_plan
from ..gpu.device import GPUSpec
from ..ir.graph import Graph
from ..runtime.executor import Executor


def _layer_scopes(graph: Graph) -> list[str]:
    """Stackable layer provenances in forward order (layer0, layer1, ...).

    Only step-structured scopes are split across stages; the embedding
    goes to the first stage and the head (plus gradient accumulation and
    anything unscoped) to the last -- the way practitioners place them.
    """
    seen: dict[str, int] = {}
    for node in graph.compute_nodes():
        if "/step" not in node.scope:
            continue
        scope = node.scope.split("/")[0]
        if scope in ("embed", "head", "attention"):
            continue
        if scope not in seen:
            seen[scope] = node.node_id
    return [s for s, _ in sorted(seen.items(), key=lambda kv: kv[1])]


def attribute_to_scopes(
    graph: Graph, plan, unit_us: dict, launch_overhead_us: float
) -> dict[str, float]:
    """Charge every schedule unit (its time plus one launch overhead) to
    the layer scope that owns it: the embedding rides with the first
    layer, the head/glue/accumulation with the last -- the way
    practitioners place them.  ``unit_us`` may hold measured unit times
    or analytic kernel costs; the attribution is identical, which is what
    makes the fleet pre-ranker's analytic stage bound comparable to the
    measured stage time.
    """
    ordered = _layer_scopes(graph)
    layer_scopes = set(ordered)
    first_owner = ordered[0] if ordered else "__first__"
    last_owner = ordered[-1] if ordered else "__last__"
    times: dict[str, float] = {scope: 0.0 for scope in ordered}
    for unit in plan.units:
        node_scope = graph.node(unit.node_ids[0]).scope
        top = node_scope.split("/")[0] if node_scope else ""
        if top not in layer_scopes:
            top = first_owner if top == "embed" else last_owner
        cost = unit_us.get(unit.unit_id, 0.0) + launch_overhead_us
        times[top] = times.get(top, 0.0) + cost
    return times


def stage_unit_times(graph: Graph, device: GPUSpec, executor=None) -> dict[str, float]:
    """Per-layer-scope time attribution from ONE executed mini-batch.

    Runs the native plan once and attributes the measured unit times, so
    summing any group of scopes from this dict equals measuring that
    group's stage -- a pipeline split of S stages costs one simulation
    instead of S.
    """
    if executor is None:
        executor = Executor(graph, device)
    plan = native_plan(graph, fuse_elementwise=True)
    result = executor.run(plan)
    return attribute_to_scopes(
        graph, plan, result.unit_times, device.launch_overhead_us
    )
