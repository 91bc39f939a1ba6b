"""The warning system (Section 4.1, Algorithm 1).

The warning system runs continuously beside the hypervisor and decides,
for each VM's latest normalised metric vector, one of three things:

* the behaviour matches a known interference-free cluster — nothing to do;
* the behaviour deviates, but most sibling VMs running the same
  application on other physical machines deviate in the same region at
  the same time — a workload change, so the repository is extended and
  no analysis is needed;
* the behaviour deviates and the siblings do not corroborate it — the
  interference analyzer must be invoked.

Before an application has accumulated enough certified behaviours the
system runs in *conservative mode*: any suspicion triggers the analyzer,
which both guarantees no interference slips through early on and
accelerates the learning of the normal-behaviour set.
"""

from __future__ import annotations

import collections.abc
import enum
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import DeepDiveConfig
from repro.core.repository import BehaviorRepository
from repro.metrics.matrix import MetricMatrix
from repro.metrics.sample import WARNING_METRICS, MetricVector

#: Reason strings shared by the scalar and batch evaluation paths, so a
#: batch decision compares equal to its scalar counterpart.
_REASON_CONSERVATIVE = (
    "no interference-free model learned yet for this application; "
    "conservative mode invokes the analyzer"
)
_REASON_NORMAL = "behaviour matches a known interference-free cluster"
_REASON_KNOWN_INTERFERENCE = (
    "behaviour matches a previously diagnosed interference "
    "signature; no re-profiling needed"
)
_REASON_ANALYZE = (
    "behaviour deviates from every known normal cluster and is not "
    "corroborated by sibling VMs"
)


def _reason_workload_change(agreeing: int, siblings: int) -> str:
    return (
        f"{agreeing}/{siblings} sibling VMs deviate in the "
        "same region at the same time; treating as a workload change"
    )


class WarningAction(str, enum.Enum):
    """Possible outcomes of a warning-system evaluation."""

    #: Behaviour matches a known normal cluster; no action.
    NORMAL = "normal"
    #: Behaviour deviates but siblings deviate too; treat as workload change.
    WORKLOAD_CHANGE = "workload_change"
    #: Behaviour deviates and siblings do not corroborate; analyze.
    ANALYZE = "analyze"
    #: Behaviour matches a previously diagnosed interference signature;
    #: interference is reported without paying another analyzer run.
    KNOWN_INTERFERENCE = "known_interference"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass
class WarningDecision:
    """The warning system's verdict for one VM at one epoch."""

    action: WarningAction
    vm_name: str
    app_id: str
    #: Mahalanobis distance to the closest normal cluster (inf when no model).
    distance: float
    #: Whether the application is still in conservative (learning) mode.
    conservative: bool
    #: Human-readable explanation.
    reason: str
    #: Names of the metric dimensions that exceeded their thresholds.
    violated_dimensions: Tuple[str, ...] = ()
    #: Number of sibling VMs consulted for the global check.
    siblings_consulted: int = 0
    #: Number of siblings whose deviation matched this VM's.
    siblings_agreeing: int = 0

    @property
    def should_analyze(self) -> bool:
        return self.action is WarningAction.ANALYZE

    @property
    def flags_interference(self) -> bool:
        """True when the decision itself already identifies interference."""
        return self.action is WarningAction.KNOWN_INTERFERENCE


#: Warning actions in code order: ``action_codes`` columns index into it.
ACTIONS: Tuple[WarningAction, ...] = tuple(WarningAction)
NORMAL_CODE = ACTIONS.index(WarningAction.NORMAL)
WORKLOAD_CHANGE_CODE = ACTIONS.index(WarningAction.WORKLOAD_CHANGE)
ANALYZE_CODE = ACTIONS.index(WarningAction.ANALYZE)
KNOWN_INTERFERENCE_CODE = ACTIONS.index(WarningAction.KNOWN_INTERFERENCE)


@dataclass(eq=False)
class DecisionColumns(collections.abc.Mapping):
    """Warning decisions for many VMs, stored as columns.

    Row ``i`` is the verdict for ``vm_names[i]``.  Reads as a read-only
    mapping ``vm name -> WarningDecision`` that builds each decision
    only when it is indexed, so an epoch whose rows are almost all
    NORMAL never materialises per-VM decision objects.  The reason
    string is derived from the action, the conservative flag and the
    sibling counts, exactly as :meth:`WarningSystem.evaluate` words it.
    """

    vm_names: Tuple[str, ...]
    app_ids: Tuple[str, ...]
    #: Index into :data:`ACTIONS` per row.
    action_codes: np.ndarray
    #: Mahalanobis distance to the closest normal cluster (inf: no model).
    distances: np.ndarray
    conservative: np.ndarray
    siblings_consulted: np.ndarray
    siblings_agreeing: np.ndarray
    #: Violated metric dimensions of the deviating rows only (row -> names).
    violated: Dict[int, Tuple[str, ...]] = field(default_factory=dict)
    _index: Optional[Dict[str, int]] = field(default=None, init=False, repr=False)

    @classmethod
    def allocate(
        cls, vm_names: Tuple[str, ...], app_ids: Tuple[str, ...]
    ) -> "DecisionColumns":
        """Columns for ``vm_names``, every row NORMAL until written."""
        n = len(vm_names)
        return cls(
            vm_names=vm_names,
            app_ids=app_ids,
            action_codes=np.full(n, NORMAL_CODE, dtype=np.int8),
            distances=np.zeros(n, dtype=float),
            conservative=np.zeros(n, dtype=bool),
            siblings_consulted=np.zeros(n, dtype=np.int32),
            siblings_agreeing=np.zeros(n, dtype=np.int32),
        )

    @classmethod
    def from_decisions(cls, decisions: Sequence[WarningDecision]) -> "DecisionColumns":
        """Columns holding already materialised decisions, in order."""
        out = cls.allocate(
            tuple(d.vm_name for d in decisions), tuple(d.app_id for d in decisions)
        )
        for i, d in enumerate(decisions):
            out.action_codes[i] = ACTIONS.index(d.action)
            out.distances[i] = d.distance
            out.conservative[i] = d.conservative
            out.siblings_consulted[i] = d.siblings_consulted
            out.siblings_agreeing[i] = d.siblings_agreeing
            if d.violated_dimensions:
                out.violated[i] = d.violated_dimensions
        return out

    def put(self, rows: np.ndarray, part: "DecisionColumns") -> None:
        """Scatter ``part``'s rows into rows ``rows`` of these columns."""
        self.action_codes[rows] = part.action_codes
        self.distances[rows] = part.distances
        self.conservative[rows] = part.conservative
        self.siblings_consulted[rows] = part.siblings_consulted
        self.siblings_agreeing[rows] = part.siblings_agreeing
        for i, dims in part.violated.items():
            self.violated[int(rows[i])] = dims

    def decision(self, row: int) -> WarningDecision:
        """Materialise row ``row`` as a :class:`WarningDecision`."""
        action = ACTIONS[self.action_codes[row]]
        conservative = bool(self.conservative[row])
        consulted = int(self.siblings_consulted[row])
        agreeing = int(self.siblings_agreeing[row])
        if action is WarningAction.NORMAL:
            reason = _REASON_NORMAL
        elif action is WarningAction.KNOWN_INTERFERENCE:
            reason = _REASON_KNOWN_INTERFERENCE
        elif action is WarningAction.WORKLOAD_CHANGE:
            reason = _reason_workload_change(agreeing, consulted)
        elif conservative:
            reason = _REASON_CONSERVATIVE
        else:
            reason = _REASON_ANALYZE
        return WarningDecision(
            action=action,
            vm_name=self.vm_names[row],
            app_id=self.app_ids[row],
            distance=float(self.distances[row]),
            conservative=conservative,
            reason=reason,
            violated_dimensions=self.violated.get(row, ()),
            siblings_consulted=consulted,
            siblings_agreeing=agreeing,
        )

    def row_of(self, vm_name: str) -> int:
        if self._index is None:
            self._index = {name: i for i, name in enumerate(self.vm_names)}
        return self._index[vm_name]

    def __getitem__(self, vm_name: str) -> WarningDecision:
        return self.decision(self.row_of(vm_name))

    def __iter__(self) -> Iterator[str]:
        return iter(self.vm_names)

    def __len__(self) -> int:
        return len(self.vm_names)

    def __contains__(self, vm_name: object) -> bool:
        try:
            self.row_of(vm_name)  # type: ignore[arg-type]
        except KeyError:
            return False
        return True


class WarningSystem:
    """Implements Algorithm 1 on top of the behaviour repository."""

    def __init__(
        self,
        repository: BehaviorRepository,
        config: Optional[DeepDiveConfig] = None,
    ) -> None:
        self.repository = repository
        self.config = config or DeepDiveConfig()
        #: Per-application count of evaluations performed (for statistics).
        self.evaluations: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def evaluate(
        self,
        vm_name: str,
        app_id: str,
        vector: MetricVector,
        sibling_vectors: Optional[Mapping[str, MetricVector]] = None,
    ) -> WarningDecision:
        """Run Algorithm 1 for one VM.

        Parameters
        ----------
        vm_name:
            The VM whose behaviour is being evaluated.
        app_id:
            The application the VM runs (drives repository lookups and
            the global-information comparison).
        vector:
            The VM's current normalised metric vector.
        sibling_vectors:
            Current metric vectors of other VMs running the same
            application on other machines (may be empty or None for the
            single-VM case).
        """
        self.evaluations[app_id] = self.evaluations.get(app_id, 0) + 1
        siblings = dict(sibling_vectors or {})
        siblings.pop(vm_name, None)

        # Conservative mode: no model yet (or too few behaviours).
        if not self.repository.has_model(app_id):
            return WarningDecision(
                action=WarningAction.ANALYZE,
                vm_name=vm_name,
                app_id=app_id,
                distance=float("inf"),
                conservative=True,
                reason=_REASON_CONSERVATIVE,
                siblings_consulted=len(siblings),
            )

        # ------------------------------------------------------------------
        # Local check: does the behaviour match a known normal cluster?
        # ------------------------------------------------------------------
        distance = self.repository.distance(app_id, vector)
        acceptance_radius = self.repository.acceptance_radius()
        thresholds = self.repository.thresholds(app_id)
        violated: Tuple[str, ...] = ()
        if distance <= acceptance_radius:
            return WarningDecision(
                action=WarningAction.NORMAL,
                vm_name=vm_name,
                app_id=app_id,
                distance=distance,
                conservative=False,
                reason=_REASON_NORMAL,
                siblings_consulted=len(siblings),
            )
        if thresholds is not None:
            violated = self._violated_dimensions(app_id, vector)

        # ------------------------------------------------------------------
        # Known-interference check: the analyzer has already diagnosed a
        # behaviour like this one, so re-profiling would be wasted work.
        # ------------------------------------------------------------------
        if self.repository.matches_interference(app_id, vector):
            return WarningDecision(
                action=WarningAction.KNOWN_INTERFERENCE,
                vm_name=vm_name,
                app_id=app_id,
                distance=distance,
                conservative=False,
                reason=_REASON_KNOWN_INTERFERENCE,
                violated_dimensions=violated,
                siblings_consulted=len(siblings),
            )

        # ------------------------------------------------------------------
        # Global check: are sibling VMs deviating in the same region?
        # ------------------------------------------------------------------
        agreeing = 0
        if siblings:
            agreeing = self._count_agreeing_siblings(app_id, vector, siblings)
            quorum = max(1, int(np.ceil(self.config.global_quorum * len(siblings))))
            if agreeing >= quorum:
                return WarningDecision(
                    action=WarningAction.WORKLOAD_CHANGE,
                    vm_name=vm_name,
                    app_id=app_id,
                    distance=distance,
                    conservative=False,
                    reason=_reason_workload_change(agreeing, len(siblings)),
                    violated_dimensions=violated,
                    siblings_consulted=len(siblings),
                    siblings_agreeing=agreeing,
                )

        return WarningDecision(
            action=WarningAction.ANALYZE,
            vm_name=vm_name,
            app_id=app_id,
            distance=distance,
            conservative=False,
            reason=_REASON_ANALYZE,
            violated_dimensions=violated,
            siblings_consulted=len(siblings),
            siblings_agreeing=agreeing,
        )

    # ------------------------------------------------------------------
    # Batch evaluation (the vectorized epoch engine)
    # ------------------------------------------------------------------
    def evaluate_batch(
        self,
        app_id: str,
        own: MetricMatrix,
        sibling_pool: Optional[MetricMatrix] = None,
    ) -> DecisionColumns:
        """Run Algorithm 1 for every VM of one application at once.

        Parameters
        ----------
        app_id:
            The application all rows of ``own`` belong to.
        own:
            The (smoothed) metric matrix of the VMs to evaluate.
        sibling_pool:
            The *latest* metric matrix of every VM running ``app_id``
            (usually a superset of ``own``'s VMs; a VM is never treated
            as its own sibling).

        Returns the verdicts as :class:`DecisionColumns`, one row per
        row of ``own``: a read-only mapping whose ``batch[vm_name]`` is
        equal — action, distance, violated dimensions, sibling counts
        and reason — to what :meth:`evaluate` returns for the
        corresponding scalar call.  Only deviating rows cost Python
        work; the NORMAL majority is a handful of array operations.
        """
        n = len(own)
        app_ids = (app_id,) * n
        if n == 0:
            return DecisionColumns.allocate(own.vm_names, app_ids)
        self.evaluations[app_id] = self.evaluations.get(app_id, 0) + n
        pool = sibling_pool if sibling_pool is not None else MetricMatrix.empty()
        m = len(pool)
        if own.vm_names == pool.vm_names:
            consulted = np.full(n, m - 1, dtype=np.int32)
        else:
            consulted = np.fromiter(
                (m - 1 if name in pool else m for name in own.vm_names),
                dtype=np.int32,
                count=n,
            )
        out = DecisionColumns.allocate(own.vm_names, app_ids)
        out.siblings_consulted[:] = consulted

        # Conservative mode: no model yet (or too few behaviours).
        if not self.repository.has_model(app_id):
            out.action_codes[:] = ANALYZE_CODE
            out.distances[:] = np.inf
            out.conservative[:] = True
            return out

        # Local check, one matrix op for the whole epoch.
        acceptance_radius = self.repository.acceptance_radius()
        distances = self.repository.distance_batch(app_id, own.array)
        out.distances[:] = distances
        deviating = np.flatnonzero(~(distances <= acceptance_radius))
        if deviating.size == 0:
            return out

        # Per-dimension MT violations, only for the deviating rows.
        rows = own.array[deviating]
        if self.repository.thresholds(app_id) is not None:
            for idx, dims in zip(
                deviating.tolist(), self._violated_dimensions_batch(app_id, rows)
            ):
                out.violated[idx] = dims

        # Known-interference signatures, batched over the deviating rows.
        known = np.zeros(n, dtype=bool)
        known[deviating] = self.repository.matches_interference_batch(app_id, rows)

        # Global check: deviating, unknown rows with at least one sibling.
        need_global = deviating[~known[deviating] & (consulted[deviating] > 0)]
        agreeing = np.zeros(n, dtype=np.int32)
        if need_global.size and m > 0:
            if own.vm_names == pool.vm_names and np.array_equal(own.array, pool.array):
                # The pool is the evaluated rows themselves (a one-epoch
                # smoothing window): distances are row-wise, so theirs
                # are already known.
                pool_distances = distances
            else:
                pool_distances = self.repository.distance_batch(app_id, pool.array)
            pool_deviates = pool_distances > acceptance_radius
            agreeing[:] = self._count_agreeing_batch(
                own, pool, need_global, pool_deviates
            )
        out.siblings_agreeing[:] = agreeing
        quorum = np.maximum(
            1, np.ceil(self.config.global_quorum * consulted).astype(np.int64)
        )
        workload = (consulted > 0) & (agreeing >= quorum)
        codes = np.where(known, KNOWN_INTERFERENCE_CODE, ANALYZE_CODE)
        codes[workload & ~known] = WORKLOAD_CHANGE_CODE
        out.action_codes[deviating] = codes[deviating]
        return out

    def _violated_dimensions_batch(
        self, app_id: str, rows: np.ndarray
    ) -> List[Tuple[str, ...]]:
        """Row-wise :meth:`_violated_dimensions` over an ``(n, d)`` matrix."""
        entry = self.repository.entry(app_id)
        if entry.model is None or entry.scaler is None or entry.thresholds is None:
            return [() for _ in range(rows.shape[0])]
        scaled = entry.scaler.transform(rows)
        diffs = scaled[:, None, :] - entry.model.means[None, :, :]
        dists = np.sqrt(
            np.sum(diffs * diffs / entry.model.variances[None, :, :], axis=2)
        )
        closest = np.argmin(dists, axis=1)
        raw_means = entry.scaler.inverse_transform(entry.model.means)
        references = np.atleast_2d(raw_means)[closest]
        mask = entry.thresholds.violation_mask(
            rows, references, dimensions=WARNING_METRICS
        )
        return [
            tuple(name for name, hit in zip(WARNING_METRICS, row) if hit)
            for row in mask
        ]

    def _count_agreeing_batch(
        self,
        own: MetricMatrix,
        pool: MetricMatrix,
        rows: Sequence[int],
        pool_deviates: np.ndarray,
        chunk: int = 64,
    ) -> np.ndarray:
        """Batched :meth:`_count_agreeing_siblings` for selected rows.

        Works on ``(chunk, m, d)`` blocks so fleets of thousands of VMs
        never materialise a cubically sized temporary.
        """
        counts = np.zeros(len(own), dtype=int)
        dev_idx = np.flatnonzero(pool_deviates)
        if dev_idx.size == 0:
            return counts
        deviating_pool = pool.array[dev_idx]  # (m', d)
        pool_abs = np.abs(deviating_pool)
        dev_pos = {pool.vm_names[int(j)]: col for col, j in enumerate(dev_idx)}
        noise = max(getattr(self.repository, "measurement_noise", 0.05), 1e-3)
        limit = self.config.global_similarity_distance
        row_arr = np.asarray(list(rows), dtype=int)
        for start in range(0, row_arr.size, chunk):
            block = row_arr[start:start + chunk]
            S = own.array[block]  # (b, d)
            scale = np.maximum(
                np.maximum(np.abs(S)[:, None, :], pool_abs[None, :, :]) * noise,
                1e-9,
            )
            diffs = (S[:, None, :] - deviating_pool[None, :, :]) / scale
            gaps = np.sqrt(np.mean(diffs * diffs, axis=2))  # (b, m')
            agree = gaps <= limit
            for bi, i in enumerate(block):
                total = int(agree[bi].sum())
                self_col = dev_pos.get(own.vm_names[int(i)])
                if self_col is not None and agree[bi, self_col]:
                    total -= 1  # a VM is never its own sibling
                counts[int(i)] = total
        return counts

    # ------------------------------------------------------------------
    def _violated_dimensions(
        self, app_id: str, vector: MetricVector
    ) -> Tuple[str, ...]:
        """Dimensions that exceeded MT against the closest cluster mean."""
        entry = self.repository.entry(app_id)
        if entry.model is None or entry.scaler is None or entry.thresholds is None:
            return ()
        scaled = entry.scaler.transform(vector.as_array())
        # Closest component by diagonal Mahalanobis distance.
        diffs = scaled[None, :] - entry.model.means
        dists = np.sqrt(np.sum(diffs * diffs / entry.model.variances, axis=1))
        closest = int(np.argmin(dists))
        raw_mean = entry.scaler.inverse_transform(entry.model.means[closest])
        reference = dict(zip(vector.values.keys(), raw_mean))
        return entry.thresholds.violated_dimensions(vector.values, reference)

    def _count_agreeing_siblings(
        self,
        app_id: str,
        vector: MetricVector,
        siblings: Mapping[str, MetricVector],
    ) -> int:
        """Siblings whose current behaviour deviates in the same region.

        A sibling agrees when (a) it also deviates from the normal
        clusters (otherwise the deviation is local to this VM), and (b)
        its scaled metric vector lies close to this VM's scaled vector.
        """
        acceptance_radius = self.repository.acceptance_radius()
        own = vector.as_array()
        noise = max(getattr(self.repository, "measurement_noise", 0.05), 1e-3)
        agreeing = 0
        for sibling_vector in siblings.values():
            sibling_deviates = (
                self.repository.distance(app_id, sibling_vector) > acceptance_radius
            )
            if not sibling_deviates:
                continue
            other = sibling_vector.as_array()
            # Per-dimension difference measured in units of the assumed
            # measurement noise (same convention as the repository's
            # interference-signature matching), RMS-combined across
            # dimensions.  Two VMs undergoing the same workload change
            # end up within a few noise units of each other.
            scale = np.maximum(np.maximum(np.abs(own), np.abs(other)) * noise, 1e-9)
            gap = float(np.sqrt(np.mean(((own - other) / scale) ** 2)))
            if gap <= self.config.global_similarity_distance:
                agreeing += 1
        return agreeing

    # ------------------------------------------------------------------
    def learn_workload_change(self, app_id: str, vector: MetricVector) -> None:
        """Extend the normal-behaviour set after a corroborated workload change."""
        self.repository.add_normal(app_id, vector)
