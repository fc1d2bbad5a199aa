""":mod:`repro.api` — the single supported analysis entry surface.

One handle per stored run, one spelling for "which run" (an archive
path or a registry run id), every analysis verb on it::

    import repro.api as api

    with api.open_run("run.aptrc") as run:        # path or registry id
        run.query("sends where src == 0 group by dst")
        run.diff("other.aptrc")
        run.viz("heatmap")                        # LOD-backed SVG
        run.whatif()                              # the archived workload
        frame = run.frame("physical")

    api.diff("a.aptrc", "traces/", n_pes=16)      # module-level peers;
    api.whatif(workload, sweeps=[("net", [0.5])]) # diff also takes dirs/ids

``core/cli.py``, the serve handlers, and the examples all go through
this module.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.lod import LodView, open_lod
from repro.core.query import query_trace
from repro.core.store.archive import Archive, is_archive
from repro.core.store.frame import Frame
from repro.core.store.registry import RunRegistry, default_registry_root

__all__ = ["Run", "diff", "open_run", "whatif"]


def _resolve(path_or_id: str | Path,
             registry: RunRegistry | str | Path | None) -> tuple[Path, str]:
    """Resolve a facade run reference to ``(path, run id)``.

    An existing path (archive file, or trace directory for
    :func:`diff`) wins; anything else is treated as a registry run
    id (or unambiguous id prefix) against ``registry`` (defaulting to
    ``$ACTORPROF_RUNS`` / ``~/.actorprof/runs``).
    """
    path = Path(path_or_id)
    if path.exists():
        return path, path.stem
    if registry is None or isinstance(registry, (str, Path)):
        registry = RunRegistry(registry if registry is not None
                               else default_registry_root())
    info = registry.resolve(str(path_or_id))
    return Path(info.path), info.run_id


class Run:
    """An opened run: one ``.aptrc`` archive plus every analysis verb.

    Obtained from :func:`open_run`; usable as a context manager.  All
    methods operate on the archive's columnar sections — no full trace
    objects are materialized.
    """

    def __init__(self, archive: Archive, *, run_id: str | None = None)\
            -> None:
        self._archive = archive
        self.run_id = run_id if run_id is not None else archive.path.stem
        self._lod: LodView | None = None

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        self._archive.close()

    def __enter__(self) -> "Run":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- introspection --------------------------------------------------

    @property
    def path(self) -> Path:
        return self._archive.path

    @property
    def archive(self) -> Archive:
        """The underlying :class:`Archive` (escape hatch)."""
        return self._archive

    @property
    def meta(self) -> dict:
        return self._archive.meta

    @property
    def n_pes(self) -> int:
        return self._archive.n_pes

    @property
    def sections(self) -> tuple[str, ...]:
        return self._archive.sections

    # -- analysis verbs -------------------------------------------------

    def query(self, text: str, *, section: str = "logical",
              pushdown: bool = True):
        """Evaluate a trace query (see :mod:`repro.core.query` grammar)
        over one section; int for aggregates, ranked pairs for
        ``group by``."""
        return query_trace(self._archive.section(section), text,
                           pushdown=pushdown)

    def frame(self, section: str = "logical") -> Frame:
        """A pruned columnar :class:`Frame` over one section."""
        return Frame(self._archive.section(section))

    def diff(self, other: "Run | str | Path", *,
             label_a: str | None = None, label_b: str | None = None) -> str:
        """Side-by-side comparison report against another run; both
        sides are labelled by run id unless told otherwise."""
        if label_b is None and isinstance(other, Run):
            label_b = other.run_id
        return diff(self, other, label_b=label_b,
                    label_a=label_a if label_a is not None else self.run_id)

    def whatif(self, workload=None, **kwargs) -> dict:
        """Causal what-if analysis of the workload that made this run.

        An archive written through ``Workload.run`` records the
        workload's descriptor: with no ``workload`` it is rebuilt from
        that, and a given one must match it key by key (the first key
        that differs, dotted when nested, is a ``ValueError``).  Older
        archives need the workload and check what they recorded: name
        (``workload``, or ``app`` for ``actorprof run``), seed, machine
        and, for ``actorprof run``, problem size.
        """
        from repro.check.workloads import workload_from_descriptor

        meta = self.meta
        recorded = meta.get("workload", meta.get("app"))
        if isinstance(recorded, dict):
            workload = workload or workload_from_descriptor(recorded)
            have = workload.descriptor()
        elif workload is None:
            raise ValueError(
                "whatif() needs the Workload that produced this run "
                f"(archive meta: workload={recorded!r}, "
                f"seed={meta.get('seed')!r})"
            )
        else:  # a pre-descriptor archive: compare what it records
            have = {"kind": workload.name,
                    **{k: v for k, v in workload.descriptor().items()
                       if k in meta}}
            recorded = {**{k: meta.get(k) for k in have},
                        "kind": recorded or workload.name}
        diff = _first_difference(recorded, have)
        if diff is not None and diff[0] == "kind":
            raise ValueError(f"workload mismatch: archive was produced by "
                             f"{diff[1]!r}, got {diff[2]!r}")
        if diff is not None:
            key, was, got = diff
            raise ValueError(
                f"{key} mismatch: archive was produced with {key} {was!r}, "
                f"got a {workload.name!r} workload with {key} {got!r}"
            )
        return whatif(workload, **kwargs)

    # -- LOD viz --------------------------------------------------------

    def lod(self) -> LodView:
        """The run's LOD pyramid view (built in-memory for archives
        that predate pyramid sections)."""
        if self._lod is None:
            self._lod = open_lod(self._archive)
        return self._lod

    def viz(self, view: str = "gantt", *, t0: int | None = None,
            t1: int | None = None, res: int | None = None) -> str:
        """Render one LOD-backed SVG view (``gantt``/``heatmap``/
        ``timeline``) for a viewport — O(res) work, never touching raw
        event columns when the archive carries a pyramid."""
        from repro.core.viz.lodviews import render_view

        return render_view(self.lod(), view, title=f"{self.run_id} {view}",
                           t0=t0, t1=t1, res=res)


def _first_difference(recorded: dict, have: dict):
    """``(key, recorded value, given value)`` of the first key on which
    two descriptors differ (dotted for nested keys), or None."""
    for key in dict.fromkeys([*recorded, *have]):
        was, got = recorded.get(key), have.get(key)
        if isinstance(was, dict) and isinstance(got, dict):
            inner = _first_difference(was, got)
            if inner is not None:
                return (f"{key}.{inner[0]}", *inner[1:])
        elif was != got:
            return key, was, got
    return None


def open_run(path_or_id: str | Path, *,
             registry: RunRegistry | str | Path | None = None) -> Run:
    """Open a run by archive path or registry run id → :class:`Run`."""
    path, run_id = _resolve(path_or_id, registry)
    if not is_archive(path):
        raise ValueError(f"{path} is not a .aptrc archive")
    return Run(Archive(path), run_id=run_id)


def diff(a: str | Path | Run, b: str | Path | Run, *,
         n_pes: int | None = None, label_a: str | None = None,
         label_b: str | None = None,
         registry: RunRegistry | str | Path | None = None) -> str:
    """Compare two stored runs: opened :class:`Run` handles, archives,
    paper-format trace directories (``n_pes`` needed only for those) or
    registry run ids, resolved as :func:`open_run` resolves them."""
    from repro.core.diffing import _diff_runs

    pa = a.path if isinstance(a, Run) else _resolve(a, registry)[0]
    pb = b.path if isinstance(b, Run) else _resolve(b, registry)[0]
    return _diff_runs(pa, pb, n_pes, label_a, label_b)


def whatif(workload, **kwargs) -> dict:
    """Causal what-if analysis of ``workload`` (see
    :mod:`repro.whatif.engine` for the knobs)."""
    from repro.whatif.engine import _run_whatif

    return _run_whatif(workload, **kwargs)
