"""The graph walks of the toolkit, each in one place."""

from __future__ import annotations

from typing import Iterable, Mapping


def descendants(children: Mapping, start: str) -> set[str]:
    """``start`` and every node reachable from it through ``children``
    (node → successors): O(answer), iterative."""
    seen = {start}
    queue = [start]
    while queue:
        for child in children.get(queue.pop(), ()):
            if child not in seen:
                seen.add(child)
                queue.append(child)
    return seen


def acyclic(successors: Mapping, nodes: Iterable[str]) -> bool:
    """Whether ``successors`` (node → successors) has no cycle, every node
    it names being among ``nodes``: Kahn's peel, O(nodes + edges).
    ``find_cycle`` names a cycle when there is one."""
    waiting = dict.fromkeys(nodes, 0)
    for targets in successors.values():
        for target in targets:
            waiting[target] += 1
    ready = [node for node, count in waiting.items() if not count]
    for node in ready:  # grows while it is read
        for target in successors.get(node, ()):
            waiting[target] -= 1
            if not waiting[target]:
                ready.append(target)
    return len(ready) == len(waiting)


def find_cycle(edges: Iterable[tuple[str, str]]) -> list[str] | None:
    """Return the nodes of one cycle of a directed edge set, first node
    repeated at the end, or None.

    Depth-first in sorted order of nodes and successors, so the cycle
    reported is deterministic; iterative, so long paths cannot exhaust the
    interpreter's recursion limit.
    """
    successors: dict[str, list[str]] = {}
    for source, target in sorted(edges):
        successors.setdefault(source, []).append(target)
    done: set[str] = set()
    for start in successors:
        if start in done:
            continue
        path = [start]
        on_path = {start}
        pending = [iter(successors[start])]
        while pending:
            for nxt in pending[-1]:
                if nxt in on_path:
                    return path[path.index(nxt):] + [nxt]
                if nxt not in done:
                    path.append(nxt)
                    on_path.add(nxt)
                    pending.append(iter(successors.get(nxt, ())))
                    break
            else:
                node = path.pop()
                on_path.discard(node)
                done.add(node)
                pending.pop()
    return None
