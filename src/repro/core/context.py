"""AnalysisContext: the shared derived-view layer over one dataset.

Nearly every table and figure of the paper re-derives the same
intermediates from the raw attack columns — per-family attack indices,
sorted interval arrays, per-family dispersion series, victim marginals,
the collaboration/chain structures.  :class:`AnalysisContext` wraps an
immutable :class:`~repro.core.dataset.AttackDataset` and memoizes those
views so they are computed **once** and shared by every consumer: the
``core`` analyses, all 18 experiment modules, the CLI and the defense
policies.

Design notes:

* Views are lazy: nothing is computed until a consumer asks.
* Memoization is thread-safe with per-key locks, so independent
  experiments can run concurrently (``registry.run_all(jobs=N)``) while
  still computing each shared view exactly once.
* The actual analysis code stays in the domain modules (``intervals``,
  ``geolocation``, ``collaboration``, …) as module-private ``_impl``
  functions; the context only orchestrates and caches.  Builders resolve
  the impls through the module object at call time, so tests can spy on
  them with ``monkeypatch``.
* Views with picklable values can be exported/imported as a *snapshot*
  (:meth:`export_views` / :meth:`import_views`); :mod:`repro.io.cache`
  stores snapshots next to the dataset pickle so repeat CLI invocations
  skip the derivation work entirely.

``AnalysisContext.of`` attaches the context to the dataset instance, so
code that still passes a raw ``AttackDataset`` around transparently
shares one context per dataset.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Any, Callable, Hashable, Union

import numpy as np

from ..obs import registry as _obs_registry
from .dataset import AttackDataset

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..monitor.schemas import Protocol
    from .collaboration import CollabEvent
    from .consecutive import AttackChain
    from .overview import DailyDistribution, WorkloadSummary
    from .prediction import DispersionForecast
    from .shift import WeeklyShift

__all__ = ["AnalysisContext", "AnalysisSource", "ShardedAnalysisContext"]

#: Anything the analyses accept: the raw dataset or its context.
AnalysisSource = Union[AttackDataset, "AnalysisContext"]

#: Attribute used to attach the shared context to a dataset instance.
_CONTEXT_ATTR = "_analysis_context"
_ATTACH_LOCK = threading.Lock()


class AnalysisContext:
    """Lazily-computed, memoized derived views over one dataset.

    ``epoch`` tags the context with the revision of the data it was built
    from.  Batch datasets are epoch 0; the streaming layer
    (:mod:`repro.stream`) bumps the epoch on every append and hands out a
    fresh context per snapshot, so consumers holding an older context
    keep a coherent (if stale) set of views while new consumers see the
    incrementally-updated ones.

    >>> from repro import api
    >>> ctx = api.context(api.generate(scale=0.005))
    >>> ctx.epoch
    0
    >>> ctx.view(("durations",), lambda: ctx.dataset.end - ctx.dataset.start).size
    258
    """

    def __init__(self, ds: AttackDataset, *, epoch: int = 0) -> None:
        if not isinstance(ds, AttackDataset):
            raise TypeError(f"AnalysisContext wraps an AttackDataset, got {type(ds).__name__}")
        self._ds = ds
        self.epoch = int(epoch)
        self._views: dict[Hashable, Any] = {}
        self._meta_lock = threading.Lock()
        self._key_locks: dict[Hashable, threading.Lock] = {}
        #: Per-view-kind (hit counter, miss counter, build histogram),
        #: resolved from the default registry once per kind and cached so
        #: the hot hit path costs one dict lookup + one counter add.
        self._view_obs: dict[str, tuple] = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def of(cls, source: AnalysisSource) -> "AnalysisContext":
        """Coerce a dataset (or context) to the dataset's shared context.

        The context is attached to the dataset instance on first use, so
        every consumer of the same dataset shares one set of views.  Use
        the plain constructor instead when an *unshared* context is
        needed (e.g. cold-start benchmarks).
        """
        if isinstance(source, AnalysisContext):
            return source
        if not isinstance(source, AttackDataset):
            raise TypeError(
                f"expected AttackDataset or AnalysisContext, got {type(source).__name__}"
            )
        ctx = source.__dict__.get(_CONTEXT_ATTR)
        if ctx is None:
            with _ATTACH_LOCK:
                ctx = source.__dict__.get(_CONTEXT_ATTR)
                if ctx is None:
                    ctx = cls(source)
                    source.__dict__[_CONTEXT_ATTR] = ctx
        return ctx

    @classmethod
    def attach(cls, ds: AttackDataset, *, epoch: int = 0) -> "AnalysisContext":
        """Create a context and install it as the dataset's shared one.

        Unlike :meth:`of`, the caller controls the epoch tag; used by the
        streaming layer when it materialises a snapshot.  Raises if the
        dataset already carries a context.
        """
        ctx = cls(ds, epoch=epoch)
        with _ATTACH_LOCK:
            if ds.__dict__.get(_CONTEXT_ATTR) is not None:
                raise ValueError("dataset already has an attached AnalysisContext")
            ds.__dict__[_CONTEXT_ATTR] = ctx
        return ctx

    @property
    def dataset(self) -> AttackDataset:
        return self._ds

    # -- memoization core --------------------------------------------------

    def _view_instruments(self, kind: str) -> tuple:
        """The (hit, miss, build-time) instruments for one view kind."""
        entry = self._view_obs.get(kind)
        if entry is None:
            reg = _obs_registry()
            entry = self._view_obs[kind] = (
                reg.counter("context.view.hit", view=kind),
                reg.counter("context.view.miss", view=kind),
                reg.histogram("context.view.build_seconds", view=kind),
            )
        return entry

    def view(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """Return the memoized view for ``key``, building it at most once.

        Double-checked per-key locking: concurrent readers of a missing
        view serialise on that view's lock only, so two experiments can
        build *different* views in parallel while never building the
        *same* view twice.

        Every call records a ``context.view.hit`` / ``context.view.miss``
        counter tick (labelled by the key's first element — the view
        kind), and each build's latency lands in the
        ``context.view.build_seconds`` histogram under a ``view:<kind>``
        stage span.
        """
        kind = key[0] if isinstance(key, tuple) and key else str(key)
        views = self._views
        try:
            value = views[key]
        except KeyError:
            pass
        else:
            self._view_instruments(kind)[0].inc()
            return value
        with self._meta_lock:
            lock = self._key_locks.setdefault(key, threading.Lock())
        with lock:
            if key in views:
                self._view_instruments(kind)[0].inc()  # lost the build race
            else:
                _hit, miss, build_hist = self._view_instruments(kind)
                miss.inc()
                started = time.perf_counter()
                with _obs_registry().span(f"view:{kind}"):
                    views[key] = build()
                build_hist.observe(time.perf_counter() - started)
        return views[key]

    @property
    def n_views(self) -> int:
        """Number of materialised views (diagnostics / tests)."""
        return len(self._views)

    def view_keys(self) -> list[Hashable]:
        """Keys of the materialised views, in creation order."""
        return list(self._views)

    def materialized(self) -> dict[Hashable, Any]:
        """Shallow copy of the materialised views (no pickling check).

        The streaming layer walks this to carry cheap views forward
        across an append; :meth:`export_views` stays the picklable
        variant for on-disk snapshots.
        """
        return dict(self._views)

    def seed_view(self, key: Hashable, value: Any) -> bool:
        """Install a precomputed value for ``key`` if it is not built yet.

        Returns True when the value was installed.  The caller guarantees
        the value equals what the builder would produce — the streaming
        layer's incremental updaters derive it from the previous epoch's
        view plus the appended rows.
        """
        with self._meta_lock:
            if key in self._views:
                return False
            self._views[key] = value
            return True

    # -- attack groupings --------------------------------------------------

    def _groups_by(self, key: str, column: np.ndarray) -> dict[int, np.ndarray]:
        """One grouping pass: column value -> sorted attack indices."""

        def build() -> dict[int, np.ndarray]:
            order = np.argsort(column, kind="stable")
            boundaries = np.flatnonzero(np.diff(column[order]) != 0) + 1
            out: dict[int, np.ndarray] = {}
            # Stable sort keeps ascending attack indices within each
            # group, i.e. chronological order.
            for group in np.split(order, boundaries) if order.size else []:
                out[int(column[group[0]])] = group
            return out

        return self.view((key,), build)

    def family_attacks(self, family: str) -> np.ndarray:
        """Attack indices (chronological) launched by ``family``.

        One grouping pass over ``family_idx`` serves every family —
        unlike :meth:`AttackDataset.attacks_of`, which scans the full
        column per call.
        """
        groups = self._groups_by("family_attack_index", self._ds.family_idx)
        fam = self._ds.family_id(family)
        return groups.get(fam, np.zeros(0, dtype=np.int64))

    def botnet_attacks(self, botnet_id: int) -> np.ndarray:
        """Attack indices (chronological) launched by one botnet."""
        groups = self._groups_by("botnet_attack_index", self._ds.botnet_id)
        return groups.get(int(botnet_id), np.zeros(0, dtype=np.int64))

    def target_attacks(self, target_index: int) -> np.ndarray:
        """Attack indices (chronological) against one victim."""
        groups = self._groups_by("target_attack_index", self._ds.target_idx)
        return groups.get(int(target_index), np.zeros(0, dtype=np.int64))

    # -- intervals and durations -------------------------------------------

    def attack_intervals(self) -> np.ndarray:
        """Gaps between consecutive attacks across all families."""
        ds = self._ds
        return self.view(
            ("attack_intervals",),
            lambda: np.diff(ds.start) if ds.n_attacks >= 2 else np.zeros(0),
        )

    def family_starts(self, family: str) -> np.ndarray:
        """Sorted start times of one family's attacks."""
        return self.view(
            ("family_starts", family),
            lambda: np.sort(self._ds.start[self.family_attacks(family)]),
        )

    def family_intervals(self, family: str, include_simultaneous: bool = True) -> np.ndarray:
        """Gaps between consecutive attacks of one family."""

        def build() -> np.ndarray:
            if include_simultaneous:
                starts = self.family_starts(family)
                if starts.size < 2:
                    return np.zeros(0)
                return np.diff(starts)
            gaps = self.family_intervals(family, include_simultaneous=True)
            return gaps[gaps > 0]

        return self.view(("family_intervals", family, bool(include_simultaneous)), build)

    def durations(self, family: str | None = None) -> np.ndarray:
        """Per-attack durations in seconds, optionally for one family."""
        if family is None:
            return self.view(("durations",), lambda: self._ds.end - self._ds.start)
        return self.view(
            ("durations", family),
            lambda: self.durations()[self.family_attacks(family)],
        )

    # -- participants and geolocation --------------------------------------

    def bot_coords_radians(self) -> tuple[np.ndarray, np.ndarray]:
        """(lat, lon) of every bot in radians — the participant geo matrix."""
        return self.view(
            ("bot_coords_radians",),
            lambda: (np.radians(self._ds.bots.lat), np.radians(self._ds.bots.lon)),
        )

    def family_participants(self, family: str) -> tuple[np.ndarray, np.ndarray]:
        """CSR participant layout restricted to one family's attacks.

        Returns ``(offsets, flat)`` where ``flat[offsets[k] :
        offsets[k + 1]]`` are the bot indices of the family's ``k``-th
        attack (chronological order, as in :meth:`family_attacks`).
        """

        def build() -> tuple[np.ndarray, np.ndarray]:
            ds = self._ds
            idx = self.family_attacks(family)
            counts = (ds.part_offsets[idx + 1] - ds.part_offsets[idx]).astype(np.int64)
            offsets = np.zeros(idx.size + 1, dtype=np.int64)
            np.cumsum(counts, out=offsets[1:])
            # One gather instead of a per-attack slice loop: element j of
            # segment k lives at ``part_offsets[idx[k]] + j`` in the
            # dataset-wide CSR, so the source positions are the segment
            # bases repeated per element plus each element's within-
            # segment rank.
            total = int(offsets[-1])
            base = np.repeat(ds.part_offsets[idx].astype(np.int64), counts)
            rank = np.arange(total, dtype=np.int64) - np.repeat(offsets[:-1], counts)
            flat = np.asarray(ds.participants)[base + rank]
            return offsets, flat

        return self.view(("family_participants", family), build)

    def attack_dispersions(self, family: str) -> tuple[np.ndarray, np.ndarray]:
        """Per-attack dispersion values for one family, in time order."""

        def build() -> tuple[np.ndarray, np.ndarray]:
            from . import geolocation as _geolocation

            return _geolocation._attack_dispersions(self, family)

        return self.view(("attack_dispersions", family), build)

    def snapshot_dispersions(self, family: str) -> tuple[np.ndarray, np.ndarray]:
        """Hourly-snapshot dispersion series for one family (§II-B view)."""

        def build() -> tuple[np.ndarray, np.ndarray]:
            from . import geolocation as _geolocation

            return _geolocation._snapshot_dispersions(self, family)

        return self.view(("snapshot_dispersions", family), build)

    # -- victim marginals --------------------------------------------------

    def target_country_idx(self) -> np.ndarray:
        """Per-attack country index of the victim."""
        return self.view(
            ("target_country_idx",),
            lambda: self._ds.victims.country_idx[self._ds.target_idx],
        )

    def target_org_idx(self) -> np.ndarray:
        """Per-attack organization index of the victim."""
        return self.view(
            ("target_org_idx",),
            lambda: self._ds.victims.org_idx[self._ds.target_idx],
        )

    def target_country_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """Global victim-country marginal: ``(country indices, counts)``."""
        return self.view(
            ("target_country_counts",),
            lambda: np.unique(self.target_country_idx(), return_counts=True),
        )

    def target_org_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """Global victim-organization marginal: ``(org indices, counts)``."""
        return self.view(
            ("target_org_counts",),
            lambda: np.unique(self.target_org_idx(), return_counts=True),
        )

    def family_target_country_counts(self, family: str) -> tuple[np.ndarray, np.ndarray]:
        """One family's victim-country marginal."""
        return self.view(
            ("family_target_country_counts", family),
            lambda: np.unique(
                self.target_country_idx()[self.family_attacks(family)], return_counts=True
            ),
        )

    def victim_org_type_counts(self) -> dict[str, int]:
        """Attacks per victim-organization type."""

        def build() -> dict[str, int]:
            from . import targets as _targets

            return _targets._victim_org_types(self)

        return self.view(("victim_org_type_counts",), build)

    # -- overview ----------------------------------------------------------

    def workload_summary(self) -> "WorkloadSummary":
        """Table III populations (computed once)."""

        def build():
            from . import overview as _overview

            return _overview._workload_summary(self._ds)

        return self.view(("workload_summary",), build)

    def protocol_breakdown(self) -> "list[tuple[Protocol, str, int]]":
        """Table II cells (protocol, family, attacks)."""

        def build():
            from . import overview as _overview

            return _overview._protocol_breakdown(self._ds)

        return self.view(("protocol_breakdown",), build)

    def protocol_popularity(self) -> "dict[Protocol, int]":
        """Fig 1 totals per protocol."""

        def build():
            from . import overview as _overview

            return _overview._protocol_popularity(self._ds)

        return self.view(("protocol_popularity",), build)

    def daily_distribution(self, family: str | None = None) -> "DailyDistribution":
        """Fig 2 daily series (all attacks or one family)."""

        def build():
            from . import overview as _overview

            return _overview._daily_attack_counts(self, family)

        return self.view(("daily_distribution", family), build)

    # -- shift -------------------------------------------------------------

    def weekly_shift_pairs(self, family: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The mergeable half of the weekly shift: attack weeks plus
        unique (week, bot) participation pairs (see ``shift._weekly_pairs``)."""

        def build():
            from . import shift as _shift

            return _shift._weekly_pairs(self, family)

        return self.view(("weekly_shift_pairs", family), build)

    def weekly_shift(self, family: str) -> "WeeklyShift":
        """Fig 8 weekly source-shift series for one family."""

        def build():
            from . import shift as _shift

            return _shift._weekly_shift(self, family)

        return self.view(("weekly_shift", family), build)

    # -- detected structure ------------------------------------------------

    def collaborations(self) -> "list[CollabEvent]":
        """Concurrent collaborations under the paper's default windows."""

        def build():
            from . import collaboration as _collaboration

            return _collaboration._detect_collaborations(
                self._ds,
                _collaboration.START_WINDOW_SECONDS,
                _collaboration.DURATION_WINDOW_SECONDS,
            )

        return self.view(("collaborations",), build)

    def chains(self) -> "list[AttackChain]":
        """Consecutive-attack chains under the paper's default margin."""

        def build():
            from . import consecutive as _consecutive

            return _consecutive._detect_chains(
                self._ds, _consecutive.CHAIN_MARGIN_SECONDS, 2
            )

        return self.view(("chains",), build)

    # -- prediction --------------------------------------------------------

    def dispersion_forecast(self, family: str) -> "DispersionForecast":
        """Table IV ARIMA forecast for one family (default protocol).

        Raises ``ValueError`` for families with too few points; the
        *exception* is not memoized, but the underlying dispersion
        series is, so retries stay cheap.
        """

        def build():
            from . import prediction as _prediction

            return _prediction._predict_family_dispersion(self, family)

        return self.view(("dispersion_forecast", family), build)

    # -- prewarm -----------------------------------------------------------

    def _prewarm_specs(self, families: list[str]) -> list[tuple]:
        """Independent prewarm tasks, skipping already-materialised work.

        A family task is emitted when any of its views is missing; the
        global scans are emitted individually.  On a warm (streaming)
        context the carried views therefore suppress their tasks and
        only the invalidated keys are rebuilt.
        """
        views = self._views
        specs: list[tuple] = []
        for kind in ("collaborations", "chains", "attack_intervals", "globals"):
            key_probe = {
                "collaborations": ("collaborations",),
                "chains": ("chains",),
                "attack_intervals": ("attack_intervals",),
                "globals": ("workload_summary",),
            }[kind]
            if key_probe not in views:
                specs.append((kind,))
        for family in families:
            family_keys = (
                ("family_participants", family),
                ("attack_dispersions", family),
                ("family_starts", family),
                ("family_intervals", family, True),
                ("durations", family),
                ("weekly_shift", family),
            )
            if any(key not in views for key in family_keys):
                specs.append(("family", family))
        from ..experiments.table4_prediction import PAPER_TABLE4

        for family in PAPER_TABLE4:
            if family in families and ("dispersion_forecast", family) not in views:
                specs.append(("forecast", family))
        return specs

    def prewarm(self, jobs: int | None = 1, families: list[str] | None = None) -> int:
        """Build the battery's independent views ahead of time.

        Fans per-family view builds (participants, dispersions, starts,
        intervals, durations, weekly shift), the Table IV forecasts and
        the collaboration/chain scans across the :mod:`repro.par` pool
        (``jobs=None`` picks the default worker count; on platforms
        without ``fork``, or with fewer CPUs than workers, the same
        tasks run serially).  Results are installed via
        :meth:`seed_view`, so a view that is already materialised — for
        example carried across a streaming epoch — is neither rebuilt
        nor overwritten.  Returns the number of views that became
        materialised; the result set is identical for every ``jobs``.
        A fan-out (``jobs > 1``) that holds forecast tasks loads the
        ARIMA backend in the parent first, so forked workers inherit it
        instead of each importing scipy.

        Observability: the whole pass runs under a ``prewarm`` stage
        span; ``prewarm.tasks`` counts the tasks dispatched and
        ``prewarm.seeded`` the views newly installed.
        """
        from .. import par

        reg = _obs_registry()
        with reg.span("prewarm"):
            if families is None:
                families = list(self._ds.active_families)
            # Cheap shared dependencies built in the parent so forked
            # workers inherit them instead of rebuilding per task.
            self._groups_by("family_attack_index", self._ds.family_idx)
            self.bot_coords_radians()
            self.durations()
            specs = self._prewarm_specs(families)
            reg.counter("prewarm.tasks").inc(len(specs))
            jobs = par.resolve_jobs(jobs)
            if jobs > 1 and any(spec[0] == "forecast" for spec in specs):
                # Forked workers would each import scipy for their fits.
                from ..timeseries.arima import load_backend

                load_backend()
            before = set(self._views)
            if specs:
                results = par.parallel_map(
                    _prewarm_worker,
                    specs,
                    jobs=jobs,
                    payload=self,
                    label="prewarm",
                )
                for pairs in results:
                    for key, value in pairs:
                        self.seed_view(key, value)
            seeded = len(set(self._views) - before)
            reg.counter("prewarm.seeded").inc(seeded)
        return seeded

    # -- snapshotting ------------------------------------------------------

    def export_views(self) -> dict[Hashable, Any]:
        """Picklable snapshot of the materialised views.

        Values that cannot be pickled (none today, but snapshots must
        degrade gracefully as views evolve) are skipped.
        """
        import pickle

        out: dict[Hashable, Any] = {}
        for key, value in list(self._views.items()):
            try:
                pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            except Exception:
                continue
            out[key] = value
        return out

    def import_views(self, views: dict[Hashable, Any]) -> int:
        """Restore a snapshot produced by :meth:`export_views`.

        Existing views win over imported ones (they were computed from
        this dataset in this process).  Returns the number of views
        actually restored.
        """
        restored = 0
        with self._meta_lock:
            for key, value in views.items():
                if key not in self._views:
                    self._views[key] = value
                    restored += 1
        return restored


class ShardedAnalysisContext:
    """Map-reduce analysis over a time-sharded dataset.

    Wraps a :class:`~repro.io.colstore.ShardedDatasetStore` and owns one
    :class:`AnalysisContext` per shard.  :meth:`build` fans the
    per-shard view derivations across the :mod:`repro.par` pool, and
    :meth:`merged` combines them — through the
    :mod:`repro.core.merge` combinators, bitwise-identically to an
    unsharded build — into a single :class:`AnalysisContext` over the
    concatenated dataset, which downstream consumers (the experiment
    battery, the report renderers) use unchanged.

    The two views that cross shard boundaries are handled explicitly:
    interval arrays gain the boundary gaps, and the collaboration/chain
    scans rescan only the targets whose attacks could link across a
    boundary.  Hourly-snapshot dispersions, which no experiment reads,
    are neither built per shard nor merged: on the merged context they
    build lazily with the flat kernel over the merged dataset, which is
    the unsharded computation itself.

    The reduce is a serial left fold: the small re-reduction state of
    every shard (:class:`~repro.core.merge.ShardPartial`) combines left
    to right, then one finalizer concatenates the linear-size views over
    an ordered list of parts.  The only memo is the previous merge — its
    shard signatures, merged context and folded partial.  After
    :meth:`refresh` picks up appended shards, :meth:`merged` folds just
    the new shards onto the previous partial and, when the layout
    allows it, leads the finalizer with the previous merged context, so
    only the new shards' rows are copied and only the new seams are
    re-stitched.

    Observability: each per-shard build runs under a ``shard:<i>`` span
    inside the ``shard.build`` stage; the merge runs under
    ``shard.merge`` and ticks ``shard.merge.views`` per seeded view,
    ``shard.merge.stitched_targets`` per boundary-stitched target,
    ``shard.merge.levels`` per combine the fold ran and
    ``shard.merge.reused`` once when the fold started from the previous
    merge's partial.

    >>> from repro import api
    >>> from repro.io.colstore import ShardedDatasetStore
    >>> store = ShardedDatasetStore.partition(api.generate(scale=0.005), shards=2)
    >>> sctx = api.context(store)
    >>> _ = sctx.build(jobs=1)
    >>> sctx.merged().dataset.n_attacks == store.n_attacks
    True
    """

    def __init__(self, store) -> None:
        self._store = store
        self._shard_ctxs: list[AnalysisContext | None] = [None] * store.n_shards
        self._merged: AnalysisContext | None = None
        self._shared_coords: tuple[np.ndarray, np.ndarray] | None = None
        self._lock = threading.Lock()
        #: The last finalised merge: (shard signatures, merged context,
        #: folded partial).  The next merge folds appended shards onto it.
        self._finalized: tuple[tuple, AnalysisContext, Any] | None = None
        #: Merged columns with reserved tail capacity so an append only
        #: copies the new shard's rows (see colstore.GrowableConcat).
        self._growable: _colstore.GrowableConcat | None = None
        #: Concat-shaped merged views in growable buffers, keyed by view
        #: key; the next finalize extends these in place.
        self._view_bufs: dict[Hashable, Any] = {}
        #: What the last :meth:`merged` call actually did (diagnostics):
        #: ``{"mode": "full" | "incremental" | "unchanged", "levels",
        #: "reused", "combined"}``.
        self.last_merge_stats: dict[str, Any] | None = None

    @property
    def store(self):
        return self._store

    @property
    def n_shards(self) -> int:
        return self._store.n_shards

    def refresh(self) -> int:
        """Adopt shards appended to the backing store since construction.

        Re-reads the store's manifest; appended shards get fresh (lazy)
        contexts while every already-built shard keeps its views, so the
        next :meth:`merged` call only maps the new shards and folds them
        onto the previous merge.  If the append rewrote the shared
        registries (new families/bots/victims interned), all per-shard
        state and the previous merge are reset — the old contexts index
        into the old registries.  Returns the number of shards adopted.
        """
        refresh_store = getattr(self._store, "refresh", None)
        if refresh_store is None:
            return 0
        with self._lock:
            appended, reset = refresh_store()
            if reset:
                self._shard_ctxs = [None] * self._store.n_shards
                self._shared_coords = None
                self._finalized = None
                self._merged = None
            elif appended:
                self._shard_ctxs.extend([None] * appended)
                self._merged = None
        return appended

    # -- per-shard layer ---------------------------------------------------

    def _shared_bot_coords(self) -> tuple[np.ndarray, np.ndarray]:
        """The bot geo matrix, computed once (registries are shared)."""
        if self._shared_coords is None:
            bots = self._store.load_shard(0).bots
            self._shared_coords = (np.radians(bots.lat), np.radians(bots.lon))
        return self._shared_coords

    def shard_context(self, index: int) -> AnalysisContext:
        """The (lazily created) analysis context of one shard."""
        ctx = self._shard_ctxs[index]
        if ctx is None:
            with self._lock:
                ctx = self._shard_ctxs[index]
                if ctx is None:
                    ctx = AnalysisContext.of(self._store.load_shard(index))
                    # Shards share the registries, so the (large) geo
                    # matrix is computed once and seeded everywhere.
                    ctx.seed_view(("bot_coords_radians",), self._shared_bot_coords())
                    self._shard_ctxs[index] = ctx
        return ctx

    def shard_families(self, index: int) -> list[str]:
        """Families with at least one attack in shard ``index``."""
        return _present_families(self.shard_context(index))

    def shard_scan_events(self, index: int, kind: str) -> list:
        """One shard's collaboration/chain events, rebased to global rows.

        The rebase is done once at shard-build time (in the map phase,
        where it parallelises) instead of per merge.
        """
        ctx = self.shard_context(index)
        base = int(self._store.shard_bases()[index])

        def build() -> list:
            from . import merge as _merge

            events = (
                ctx.collaborations() if kind == "collaborations" else ctx.chains()
            )
            return _merge.rebase_scan_events(events, base)

        return ctx.view((f"{kind}_global",), build)

    def build_shard(self, index: int) -> AnalysisContext:
        """Materialise one shard's mergeable views (idempotent)."""
        _shard_build_worker(self, index)
        return self.shard_context(index)

    def build(self, jobs: int | None = 1) -> int:
        """Build every shard's mergeable views, possibly in parallel.

        Fans :func:`_shard_build_worker` across the :mod:`repro.par`
        pool (same serial fallback rules as prewarm) and seeds each
        worker's view delta back into the parent's shard contexts.
        Returns the total number of views materialised across shards.
        """
        from .. import par

        with _obs_registry().span("shard.build"):
            indices = list(range(self.n_shards))
            # Touch every shard context in the parent so forked workers
            # inherit the datasets (and shared geo matrix) copy-on-write.
            for index in indices:
                self.shard_context(index)
            results = par.parallel_map(
                _shard_build_worker,
                indices,
                jobs=par.resolve_jobs(jobs),
                payload=self,
                label="shard_build",
            )
            for index, pairs in zip(indices, results):
                ctx = self.shard_context(index)
                for key, value in pairs:
                    ctx.seed_view(key, value)
        return sum(self.shard_context(i).n_views for i in range(self.n_shards))

    # -- the reduce step ---------------------------------------------------

    def _signatures(self) -> tuple:
        """Per-shard content signatures, in shard order."""
        return tuple(
            self._store.shard_signature(k) for k in range(self.n_shards)
        )

    def merged(self, jobs: int | None = 1) -> AnalysisContext:
        """The merged context: every mergeable view seeded, bitwise equal
        to an unsharded build over the concatenated dataset.

        The shard partials fold serially, left to right, so ``jobs`` is
        unused; it is accepted for callers that pass it.  When the
        previous merge's shard signatures are a prefix of the current
        ones (after :meth:`refresh` adopted appended shards), the fold
        starts from the previous merge's partial, and the previous merged
        context is extended when the layout allows it (same
        window/registries, non-empty new shards) — only the new seams
        are stitched.
        """
        from . import merge as _merge

        if self._merged is not None:
            return self._merged

        for index in range(self.n_shards):
            self.build_shard(index)

        def leaf(index: int):
            return _merge.make_shard_partial(
                self.shard_context(index), self.shard_families(index), index
            )

        reg = _obs_registry()
        with reg.span("shard.merge"):
            sigs = self._signatures()
            prev = self._finalized
            n_prev = 0
            if prev is not None and sigs[: len(prev[0])] == prev[0]:
                n_prev = len(prev[0])
            partial = prev[2] if n_prev else leaf(0)
            first = max(n_prev, 1)
            for index in range(first, self.n_shards):
                partial = _merge.combine_partials(partial, leaf(index))
            combined = self.n_shards - first
            shards = [self.shard_context(k) for k in range(self.n_shards)]
            if n_prev == self.n_shards:
                ctx, mode = prev[1], "unchanged"
            elif n_prev and self._append_compatible(prev[1], n_prev):
                ctx = self._finalize([prev[1], *shards[n_prev:]], partial, n_prev)
                mode = "incremental"
            else:
                ctx, mode = self._finalize(shards, partial, 0), "full"
            reused = int(n_prev > 0)
            reg.counter("shard.merge.levels").inc(combined)
            reg.counter("shard.merge.reused").inc(reused)
            self._finalized = (sigs, ctx, partial)
            self.last_merge_stats = {
                "mode": mode,
                "levels": combined,
                "reused": reused,
                "combined": combined,
            }
            self._merged = ctx
        return self._merged

    def _append_compatible(self, prev_ctx: AnalysisContext, n_prev: int) -> bool:
        """Can the previous merged context absorb shards ``n_prev..``?"""
        pds = prev_ctx.dataset
        window = self._store.window
        if (float(pds.window.start), float(pds.window.end)) != (
            float(window.start),
            float(window.end),
        ):
            return False
        for k in range(n_prev, self.n_shards):
            sds = self.shard_context(k).dataset
            if (
                sds.n_attacks == 0
                or list(sds.families) != list(pds.families)
                or sds.victims.n_targets != pds.victims.n_targets
                or sds.bots.lat.size != pds.bots.lat.size
            ):
                return False
        return True

    def _finalize(
        self, parts: list[AnalysisContext], partial, n_prev: int
    ) -> AnalysisContext:
        """Assemble the merged context over ``parts``, in time order.

        ``parts`` is every shard context (``n_prev == 0``), or the
        previous merged context — covering shards ``< n_prev`` — followed
        by the contexts of shards ``n_prev..``.  Every linear-size view
        concatenates over the parts into a growable buffer; when the
        leading part's view is the buffer the previous merge left, only
        the later parts are copied into its reserved tail.  The scan
        stitch is the one step that differs: with a previous context it
        probes just the new seams.  Snapshot dispersions are never
        seeded; the merged context builds them lazily if read.
        """
        from . import merge as _merge
        from . import shift as _shift
        from ..io import colstore as _colstore

        reg = _obs_registry()
        merged_views = reg.counter("shard.merge.views")
        lead, rest = parts[0], parts[1:]
        ds = None
        if self._growable is not None and self._growable.dataset is lead.dataset:
            ds = self._growable.extend([c.dataset for c in rest])
        if ds is None:
            # A shard leads, or the headroom is exhausted: one full copy,
            # which also restores the reserve.
            self._growable = _colstore.GrowableConcat([c.dataset for c in parts])
            ds = self._growable.dataset
        ctx = AnalysisContext.of(ds)
        bases = [0]
        for part in parts[:-1]:
            bases.append(bases[-1] + int(part.dataset.n_attacks))
        old_bufs, self._view_bufs = self._view_bufs, {}

        def buffer(key: Hashable, head: np.ndarray, pieces: list) -> np.ndarray:
            """``np.concatenate([head, *pieces])``, held in a growable buffer.

            Extends ``key``'s previous buffer in place when ``head`` is
            its view; otherwise (``head`` is a shard's view, the buffer
            was superseded or is out of room) copies into a fresh one.
            """
            gb = old_bufs.get(key)
            out = gb.extend(pieces) if gb is not None and gb.view is head else None
            if out is None:
                gb = _merge.GrowBuffer([head, *pieces])
                out = gb.view
            self._view_bufs[key] = gb
            return out

        def seed(key: Hashable, value: Any) -> None:
            if ctx.seed_view(key, value):
                merged_views.inc()

        def day_column(part_ds) -> np.ndarray:
            return ((part_ds.start - ds.window.start) // 86400).astype(np.int64)

        seed(("bot_coords_radians",), self._shared_bot_coords())
        grouped_by_target: dict[int, np.ndarray] = {}
        for gkey, column in (
            ("family_attack_index", "family_idx"),
            ("botnet_attack_index", "botnet_id"),
            ("target_attack_index", "target_idx"),
        ):
            groups = _merge.merge_grouped_indices(
                [c._groups_by(gkey, getattr(c.dataset, column)) for c in parts],
                bases,
            )
            seed((gkey,), groups)
            if gkey == "target_attack_index":
                grouped_by_target = groups
        # An empty leading diff array makes interval_pieces yield only
        # what follows the lead: one gap per seam plus the later parts'
        # gap arrays.
        empty = np.zeros(0)
        seed(
            ("attack_intervals",),
            buffer(
                ("attack_intervals",),
                lead.attack_intervals(),
                _merge.interval_pieces(
                    [c.dataset.start for c in parts],
                    [empty, *(c.attack_intervals() for c in rest)],
                ),
            ),
        )
        for name in ("durations", "target_country_idx", "target_org_idx"):
            seed(
                (name,),
                buffer(
                    (name,),
                    getattr(lead, name)(),
                    [getattr(c, name)() for c in rest],
                ),
            )
        # The per-attack day column lets the busiest-day re-derivation
        # skip its full-column pass; a previous merge left it buffered.
        days = buffer(
            ("daily_days",),
            old_bufs[("daily_days",)].view if n_prev else day_column(lead.dataset),
            [day_column(c.dataset) for c in rest],
        )
        seed(("target_country_counts",), partial.target_country_counts)
        seed(("target_org_counts",), partial.target_org_counts)
        seed(("protocol_breakdown",), partial.protocol_breakdown)
        seed(("protocol_popularity",), partial.protocol_popularity)
        seed(
            ("daily_distribution", None),
            _merge.finish_daily_distribution(
                partial.daily_counts[None], ds, None, days=days
            ),
        )
        # Walks ascending org order over the seeded marginal — the
        # same order the unsharded builder uses.
        ctx.victim_org_type_counts()

        stitched_targets: set[int] = set()
        for kind in ("collaborations", "chains"):
            new_events = [
                self.shard_scan_events(k, kind) for k in range(n_prev, self.n_shards)
            ]
            if n_prev:
                events, targets = _merge.seam_stitch_scan_events(
                    getattr(lead, kind)(),
                    new_events,
                    ds,
                    grouped_by_target,
                    bases,
                    kind,
                )
            else:
                events, targets = _merge.stitch_scan_events(
                    new_events, ds, grouped_by_target, bases, kind
                )
            stitched_targets |= targets
            seed((kind,), events)
        reg.counter("shard.merge.stitched_targets").inc(len(stitched_targets))

        # Each part's own family grouping says which families it holds.
        # A battery run on a previous merged context lazily builds empty
        # views for families it has not seen yet, so view keys alone are
        # no evidence that a part has rows of the family.
        present = [set(_present_families(c)) for c in parts]
        for family in partial.families:
            here = [c for c, names in zip(parts, present) if family in names]
            head, later = here[0], here[1:]
            starts = [c.family_starts(family) for c in here]
            seed(
                ("family_starts", family),
                buffer(("family_starts", family), starts[0], starts[1:]),
            )
            seed(
                ("family_intervals", family, True),
                buffer(
                    ("family_intervals", family, True),
                    head.family_intervals(family),
                    _merge.interval_pieces(
                        starts, [empty, *(c.family_intervals(family) for c in later)]
                    ),
                ),
            )
            seed(
                ("durations", family),
                buffer(
                    ("durations", family),
                    head.durations(family),
                    [c.durations(family) for c in later],
                ),
            )
            # Flat entries are global bot indices; offsets continue from
            # the flat end so far (a leading merged context's offsets are
            # already global).
            fp = [c.family_participants(family) for c in here]
            off_pieces: list[np.ndarray] = []
            base = fp[0][0][-1]
            for offsets, _flat in fp[1:]:
                off_pieces.append(offsets[1:] + base)
                base = base + offsets[-1]
            fp_key = ("family_participants", family)
            seed(
                fp_key,
                (
                    buffer((fp_key, 0), fp[0][0], off_pieces),
                    buffer((fp_key, 1), fp[0][1], [f for _o, f in fp[1:]]),
                ),
            )
            disp = [c.attack_dispersions(family) for c in here]
            disp_key = ("attack_dispersions", family)
            seed(
                disp_key,
                (
                    buffer((disp_key, 0), disp[0][0], [p[0] for p in disp[1:]]),
                    buffer((disp_key, 1), disp[0][1], [p[1] for p in disp[1:]]),
                ),
            )
            seed(
                ("family_target_country_counts", family),
                partial.family_country_counts[family],
            )
            seed(
                ("daily_distribution", family),
                _merge.finish_daily_distribution(
                    partial.daily_counts[family], ds, family
                ),
            )
            pairs = partial.weekly_pairs[family]
            seed(("weekly_shift_pairs", family), pairs)
            seed(
                ("weekly_shift", family),
                _shift._finish_weekly_shift(ds, family, *pairs),
            )
        return ctx


def _present_families(ctx: AnalysisContext) -> list[str]:
    """Families with at least one attack in ``ctx``'s dataset."""
    groups = ctx._groups_by("family_attack_index", ctx.dataset.family_idx)
    return [ctx.dataset.family_name(k) for k in sorted(groups)]


def _shard_build_worker(
    sctx: "ShardedAnalysisContext", index: int
) -> list[tuple[Hashable, Any]]:
    """Build one shard's mergeable views; return the view delta.

    Runs in-process or in a forked worker (same contract as
    :func:`_prewarm_worker`): views memoize on the shard's own context,
    and the delta — minus the pre-seeded shared geo matrix — is the only
    pickle a forked fan-out pays for.
    """
    ctx = sctx.shard_context(index)
    before = set(ctx._views)
    with _obs_registry().span(f"shard:{index}"):
        ds = ctx.dataset
        ctx._groups_by("family_attack_index", ds.family_idx)
        ctx._groups_by("botnet_attack_index", ds.botnet_id)
        ctx._groups_by("target_attack_index", ds.target_idx)
        ctx.attack_intervals()
        ctx.durations()
        ctx.target_country_idx()
        ctx.target_org_idx()
        ctx.target_country_counts()
        ctx.target_org_counts()
        ctx.protocol_breakdown()
        ctx.protocol_popularity()
        ctx.daily_distribution(None)
        ctx.collaborations()
        ctx.chains()
        # Rebase scan events to global rows here, in the (parallel) map
        # phase, so the merge only has to stitch the boundaries.
        sctx.shard_scan_events(index, "collaborations")
        sctx.shard_scan_events(index, "chains")
        for family in sctx.shard_families(index):
            ctx.family_starts(family)
            ctx.family_intervals(family)
            ctx.durations(family)
            ctx.family_participants(family)
            ctx.attack_dispersions(family)
            ctx.family_target_country_counts(family)
            ctx.daily_distribution(family)
            ctx.weekly_shift_pairs(family)
    return [(k, v) for k, v in ctx.materialized().items() if k not in before]


def _prewarm_worker(ctx: "AnalysisContext", spec: tuple) -> list[tuple[Hashable, Any]]:
    """One prewarm task: build a related view group, return the delta.

    Runs in-process (serial mode) or in a forked worker; either way it
    builds through the context's own accessors, so the views memoize and
    instrument exactly as a lazy build would.  The return value is the
    set of views this task materialised — the only pickle a forked
    fan-out pays for.  Forecasts mirror the paper's Darkshell call:
    families with too few points are skipped, not raised.
    """
    before = set(ctx._views)
    kind = spec[0]
    if kind == "family":
        family = spec[1]
        ctx.family_participants(family)
        ctx.attack_dispersions(family)
        ctx.family_starts(family)
        ctx.family_intervals(family)
        ctx.durations(family)
        ctx.weekly_shift(family)
    elif kind == "forecast":
        try:
            ctx.dispersion_forecast(spec[1])
        except ValueError:
            pass
    elif kind == "collaborations":
        ctx.collaborations()
    elif kind == "chains":
        ctx.chains()
    elif kind == "attack_intervals":
        ctx.attack_intervals()
    elif kind == "globals":
        from . import intervals as _intervals

        ctx.workload_summary()
        ctx.protocol_breakdown()
        ctx.protocol_popularity()
        ctx.daily_distribution(None)
        ctx.target_country_idx()
        ctx.target_org_idx()
        ctx.target_country_counts()
        ctx.victim_org_type_counts()
        _intervals.simultaneous_attacks(ctx)
    else:  # pragma: no cover - spec list and worker evolve together
        raise ValueError(f"unknown prewarm spec {spec!r}")
    return [(k, v) for k, v in ctx.materialized().items() if k not in before]
