"""Opportunistic batch grouping of compatible task shards.

Most sweep traffic — campaign points, seed shards, service jobs fanned
out from one ``Axis`` — is many small tasks over the *same* hierarchy
geometry.  Tasks that declare the same ``batch_hint`` (an opaque label
chosen by the submitter, e.g. a CRC of a scenario's hierarchy geometry,
as ``scripts/run_campaign.py`` does) are coalesced into one *batch
group* that a single worker executes back to back — one process spawn
instead of N, with warm imports and allocator.

Grouping is strictly a scheduling affinity:

* results are split back into per-task entries, bit-identical to
  ungrouped execution (each task still computes from its own pinned
  ``(experiment_id, profile, seed)``);
* cache keys never see the hint;
* a hintless task is always its own singleton group.

Tasks only group when their *execution route* matches too — same profile,
same entry point — so a hint collision between unrelated submitters can
reorder nothing that matters.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.common.canonical import canonical_json
from repro.runner.sharding import TaskSpec

#: Hard ceiling on members per batch group, so one worker's share of a
#: large fan-out stays bounded.
MAX_GROUP_SIZE = 256


def batch_group_key(task: TaskSpec) -> Optional[str]:
    """The coalescing key of ``task``; ``None`` means "never group".

    Two tasks may share a group only when the hint, the profile, and the
    execution route (registry id / entry point / scenario-vs-registry)
    all agree — seeds and scenario payloads are exactly what a group is
    allowed to vary.
    """
    if task.batch_hint is None:
        return None
    route = (
        f"entry:{task.entry_point}"
        if task.entry_point is not None
        else ("scenario" if task.scenario is not None else f"registry:{task.experiment_id}")
    )
    return f"{task.batch_hint}|{route}|{canonical_json(task.profile.to_dict())}"


def coalesce_tasks(
    tasks: Sequence[TaskSpec], max_group: int = MAX_GROUP_SIZE
) -> List[List[TaskSpec]]:
    """Partition ``tasks`` into batch groups, preserving first-seen order.

    Hintless tasks stay singletons.  Groups are capped at ``max_group``
    members; overflow starts a fresh group.  The concatenation of the
    returned groups is a permutation of ``tasks`` in which each group's
    members keep their relative input order.
    """
    groups: List[List[TaskSpec]] = []
    open_group: Dict[str, int] = {}
    for task in tasks:
        key = batch_group_key(task)
        if key is None:
            groups.append([task])
            continue
        index = open_group.get(key)
        if index is not None and len(groups[index]) < max_group:
            groups[index].append(task)
        else:
            open_group[key] = len(groups)
            groups.append([task])
    return groups


def group_weight(group: Sequence[TaskSpec]) -> float:
    """Scheduling weight of a group (sum of member weights)."""
    return sum(task.weight for task in group)


def group_timeout(group: Sequence[TaskSpec]) -> Optional[float]:
    """Wall-clock budget of a group: the sum of member budgets.

    A single member without a budget makes the whole group unlimited —
    the group runs back to back in one worker, so no tighter bound is
    honest.
    """
    total = 0.0
    for task in group:
        if task.timeout is None:
            return None
        total += task.timeout
    return total
