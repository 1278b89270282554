"""Generalized Polya urn: a Markov chain over alive cluster sizes.

Each step kills a random subset of the alive allocation units (uniform
thinning, size-biased whole-box deletion, mixtures/compositions of those,
or a deterministic sliding window) and then allocates a fresh batch of n
units with the standard Polya urn rule on the survivors.  The partition of
every batch is Ewens-distributed; `diagnostics` carries the statistical
tests for that claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .partitions import sample_categorical

__all__ = [
    "UrnState",
    "UniformDeletion",
    "SizeBiasedDeletion",
    "MixturePolicy",
    "ComposePolicy",
    "SlidingWindow",
    "DeletionPolicy",
    "policy_leaves",
    "policy_window",
    "policy_uses_walk",
    "delete_uniform",
    "delete_size_biased",
    "apply_policy",
    "allocate_batch",
    "step",
    "run_trajectory",
]


@dataclass(frozen=True)
class UniformDeletion:
    """Each alive unit independently survives a step with probability rho.

    rho=None stands for the random-walk survival probability of the SMC
    filter: `apply_policy` then takes it from its `rho` argument.
    """

    rho: float | None

    def __post_init__(self):
        if self.rho is not None and not 0.0 <= self.rho <= 1.0:
            raise ValueError("rho must lie in [0, 1]")


@dataclass(frozen=True)
class SizeBiasedDeletion:
    """Remove `count` whole boxes, each chosen with probability m_k / sum(m)."""

    count: int = 1

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be >= 1")


@dataclass(frozen=True)
class MixturePolicy:
    """Apply policy_a with probability alpha, else policy_b."""

    alpha: float
    policy_a: "DeletionPolicy"
    policy_b: "DeletionPolicy"

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")


@dataclass(frozen=True)
class ComposePolicy:
    """Apply the sub-policies in sequence within one step."""

    policies: tuple["DeletionPolicy", ...]

    def __init__(self, policies: Sequence["DeletionPolicy"]):
        object.__setattr__(self, "policies", tuple(policies))


@dataclass(frozen=True)
class SlidingWindow:
    """Units die deterministically r steps after creation: the alive set
    ahead of batch t is exactly the units born at t-r .. t-1."""

    r: int

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("r must be >= 1")


DeletionPolicy = Union[
    UniformDeletion, SizeBiasedDeletion, MixturePolicy, ComposePolicy, SlidingWindow
]


def policy_leaves(policy: DeletionPolicy):
    """Yield the uniform, size-biased and sliding-window policies a policy
    tree is built from, depth first."""
    if isinstance(policy, MixturePolicy):
        yield from policy_leaves(policy.policy_a)
        yield from policy_leaves(policy.policy_b)
    elif isinstance(policy, ComposePolicy):
        for sub in policy.policies:
            yield from policy_leaves(sub)
    else:
        yield policy


def policy_window(policy: DeletionPolicy) -> int:
    """Longest sliding window in the policy, 0 if it has none (then unit
    ages never matter)."""
    return max((p.r for p in policy_leaves(policy) if isinstance(p, SlidingWindow)), default=0)


def policy_uses_walk(policy: DeletionPolicy) -> bool:
    """Whether the policy deletes at the random-walk rho (UniformDeletion(None))."""
    return any(isinstance(p, UniformDeletion) and p.rho is None for p in policy_leaves(policy))


@dataclass
class UrnState:
    """Alive boxes of the generalized urn.

    `boxes` maps cluster label -> alive unit count (zero-count boxes are
    evicted eagerly, labels are never reused).  `births` additionally
    resolves each box into per-creation-time unit counts; it is carried
    only when a sliding-window policy needs unit ages.
    """

    theta: float
    boxes: dict[int, int] = field(default_factory=dict)
    next_label: int = 1
    time: int = 0
    births: dict[int, dict[int, int]] | None = None

    def __post_init__(self):
        if self.theta <= 0:
            raise ValueError("theta must be positive")

    @classmethod
    def empty(cls, theta: float, retain_ages: bool = False) -> "UrnState":
        return cls(theta=theta, births={} if retain_ages else None)

    @classmethod
    def for_policy(cls, theta: float, policy: DeletionPolicy) -> "UrnState":
        return cls.empty(theta, retain_ages=policy_window(policy) > 0)

    @property
    def total_mass(self) -> int:
        return sum(self.boxes.values())

    def copy(self) -> "UrnState":
        births = None
        if self.births is not None:
            births = {lab: dict(cells) for lab, cells in self.births.items()}
        return UrnState(
            theta=self.theta,
            boxes=dict(self.boxes),
            next_label=self.next_label,
            time=self.time,
            births=births,
        )

    def add_unit(self, label: int) -> None:
        """Add one unit, born at time `time + 1`, to box `label`; a label
        not alive opens that box and moves next_label past it."""
        if label in self.boxes:
            self.boxes[label] += 1
        else:
            self.boxes[label] = 1
            self.next_label = label + 1
        if self.births is not None:
            cells = self.births.setdefault(label, {})
            cells[self.time + 1] = cells.get(self.time + 1, 0) + 1

    def _drop_box(self, label: int) -> None:
        del self.boxes[label]
        if self.births is not None:
            self.births.pop(label, None)


def delete_uniform(state: UrnState, rho: float, rng: np.random.Generator) -> UrnState:
    """Thin every alive unit independently with survival probability rho."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    if rho == 1.0 or not state.boxes:
        return state.copy()
    if state.births is None:
        # scalar draws consume the stream exactly as one draw over the
        # array of counts would, without numpy's per-call array overhead
        boxes = {}
        for label, m in state.boxes.items():
            s = rng.binomial(m, rho)
            if s:
                boxes[label] = s
        return UrnState(theta=state.theta, boxes=boxes, next_label=state.next_label, time=state.time)
    out = state.copy()
    # age-resolved state: thin each (label, birth-time) cell; binomial
    # splitting makes this the same law as thinning the aggregate
    for label in list(out.boxes):
        cells = out.births[label]
        survivors = 0
        for birth in list(cells):
            s = int(rng.binomial(cells[birth], rho))
            if s:
                cells[birth] = s
            else:
                del cells[birth]
            survivors += s
        if survivors:
            out.boxes[label] = survivors
        else:
            out._drop_box(label)
    return out


def delete_size_biased(state: UrnState, rng: np.random.Generator) -> UrnState:
    """Remove one whole box chosen with probability m_k / sum(m); no-op on empty."""
    out = state.copy()
    if not out.boxes:
        return out
    labels = list(out.boxes)
    out._drop_box(labels[sample_categorical(list(out.boxes.values()), rng)])
    return out


def _delete_window(state: UrnState, r: int) -> UrnState:
    if state.births is None:
        raise ValueError("sliding-window deletion needs a state built with retain_ages")
    out = state.copy()
    # Deleting ahead of batch time+1 keeps units born at time+1-r .. time.
    cutoff = out.time - r
    for label in list(out.boxes):
        cells = out.births[label]
        for birth in [b for b in cells if b <= cutoff]:
            del cells[birth]
        total = sum(cells.values())
        if total:
            out.boxes[label] = total
        else:
            out._drop_box(label)
    return out


def apply_policy(
    state: UrnState,
    policy: DeletionPolicy,
    rng: np.random.Generator,
    rho: float | None = None,
) -> UrnState:
    """Run one deletion phase (the kill preceding the next batch); `rho` is
    the survival probability of UniformDeletion(None) leaves."""
    if isinstance(policy, UniformDeletion):
        if policy.rho is not None:
            rho = policy.rho
        elif rho is None:
            raise ValueError("policy uses the rho walk but none is configured")
        return delete_uniform(state, rho, rng)
    if isinstance(policy, SizeBiasedDeletion):
        out = state
        for _ in range(policy.count):
            out = delete_size_biased(out, rng)
        return out
    if isinstance(policy, MixturePolicy):
        branch = policy.policy_a if rng.random() < policy.alpha else policy.policy_b
        return apply_policy(state, branch, rng, rho)
    if isinstance(policy, ComposePolicy):
        out = state
        for sub in policy.policies:
            out = apply_policy(out, sub, rng, rho)
        return out
    if isinstance(policy, SlidingWindow):
        return _delete_window(state, policy.r)
    raise TypeError(f"unknown deletion policy {policy!r}")


def allocate_batch(
    state: UrnState, n: int, rng: np.random.Generator
) -> tuple[UrnState, list[int]]:
    """Allocate n new units at time state.time + 1 with the Polya urn rule.

    Each draw joins alive box i with probability m_i / (sum(m) + theta) and
    opens a box labelled next_label with probability theta / (sum(m) + theta).
    Returns the updated state and the batch's box labels in draw order.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    out = state.copy()
    labels = list(out.boxes)
    weights = [*out.boxes.values(), out.theta]  # box masses, then the new-box weight
    batch: list[int] = []
    for _ in range(n):
        pick = sample_categorical(weights, rng)
        if pick < len(labels):
            chosen = labels[pick]
            weights[pick] += 1
        else:
            chosen = out.next_label
            labels.append(chosen)
            weights.insert(pick, 1)
        out.add_unit(chosen)
        batch.append(chosen)
    out.time += 1
    return out, batch


def step(
    state: UrnState,
    policy: DeletionPolicy,
    n: int,
    rng: np.random.Generator,
) -> tuple[UrnState, list[int]]:
    """One full urn step: deletion phase, then an n-unit allocation batch."""
    killed = apply_policy(state, policy, rng)
    return allocate_batch(killed, n, rng)


def run_trajectory(
    theta: float,
    policy: DeletionPolicy,
    n: int,
    steps: int,
    rng: np.random.Generator,
):
    """Yield one JSON-ready record per step: {"t", "boxes", "allocations"}."""
    state = UrnState.for_policy(theta, policy)
    for _ in range(steps):
        state, batch = step(state, policy, n, rng)
        yield {
            "t": state.time,
            "boxes": {str(k): v for k, v in sorted(state.boxes.items())},
            "allocations": batch,
        }
