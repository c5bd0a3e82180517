"""repro — reproduction of Jiang & Singh, "Improving Parallel Shear-Warp
Volume Rendering on Shared Address Space Multiprocessors" (PPoPP 1997).

Top-level facade
----------------
The stable entry points for rendering with the real multiprocessing
backend live here, so callers configure everything through one
:class:`PoolConfig` instead of threading keyword arguments through
three layers::

    import repro

    cfg = repro.PoolConfig(n_procs=4)
    with repro.open_pool(renderer, config=cfg) as pool:
        res = pool.render(view)                             # one frame
        handles = pool.submit_batch(views)                  # animation
        results = [pool.result(h) for h in handles]

Everything is imported lazily: ``import repro`` stays cheap and pulls
in numpy-heavy modules only when a facade symbol is first touched.

Subpackages
-----------
``transforms``   shear-warp factorization of viewing matrices
``datasets``     synthetic MRI/CT phantom volumes (paper-input proxies)
``volume``       classification + run-length encoding
``render``       serial shear-warp renderer and ray-casting baseline
``core``         the paper's contribution: old vs new parallel partitioning
``memsim``       memory-system simulator and the event-driven execution model
``analysis``     speedups, time breakdowns, working-set analyses
``parallel``     the native render pools (processes over shared memory)
``shard``        fleets of pools merged sort-last
``serve``        render-as-a-service front end
``movie``        time-varying volumes and the stage-overlapped movie pipeline
``obs``          span tracing, Chrome trace export, metrics

The simulator half (``core``, ``memsim``, ``analysis``) and the native
half (``parallel``, ``shard``, ``serve``, ``movie``, ``obs``) share only
the layers below them (``transforms``, ``datasets``, ``volume``,
``render``, ``core.partition`` and ``core.profiling``) and never import
each other.
"""

__version__ = "10.0.0"

#: Facade symbols re-exported (lazily) from :mod:`repro.parallel`.
_POOL_EXPORTS = (
    "PoolConfig",
    "MPRenderPool",
    "MPRenderResult",
    "MPPoolError",
    "FrameFailed",
    "FrameTimeout",
    "WorkerDied",
    "PoolClosed",
    "PoolUnrecoverable",
)

#: Facade symbols re-exported (lazily) from :mod:`repro.parallel.backend`.
_BACKEND_EXPORTS = (
    "RenderBackend",
    "FrameSpec",
)

#: Facade symbols re-exported (lazily) from :mod:`repro.shard`.
_SHARD_EXPORTS = ("ShardedRenderService",)

#: Facade symbols re-exported (lazily) from :mod:`repro.movie`.
_MOVIE_EXPORTS = (
    "TimeVaryingVolume",
    "TimeVaryingRenderer",
    "MoviePipeline",
)

__all__ = [
    "__version__", "open_pool", *_POOL_EXPORTS,
    *_BACKEND_EXPORTS, *_SHARD_EXPORTS, *_MOVIE_EXPORTS,
]


def open_pool(renderer, config=None, **overrides):
    """Open a persistent render pool (use as a context manager).

    ``config`` is a :class:`PoolConfig`; keyword overrides build one
    (``open_pool(r, n_procs=4)``) or refine a given config
    (``open_pool(r, cfg, trace=True)``).  The pool is the fork-based
    :class:`MPRenderPool`: worker processes over shared memory, the
    paper's model.  ``config.backend="thread"`` opens the fork-free
    :class:`~repro.parallel.thread_backend.ThreadRenderPool` instead, the
    test transport (same API, bit-identical images); both come from
    :data:`repro.parallel.POOL_CLASSES`.

    ``config.shards > 1`` (``open_pool(r, shards=4)``) opens a
    :class:`~repro.shard.ShardedRenderService` instead — a fleet of
    pools, one per contiguous scanline shard, merged sort-last into
    bit-identical frames behind the same pool API.  One frame is
    ``open_pool(...)`` plus ``render(view)``; keep the pool for the next
    one, so fork, shared-memory setup and the first slice decodes are
    paid once.
    """
    from .parallel import POOL_CLASSES, PoolConfig

    if config is None:
        config = PoolConfig(**overrides)
    elif overrides:
        config = config.replace(**overrides)
    if config.shards > 1:
        from .shard import ShardedRenderService

        return ShardedRenderService(renderer, config)
    return POOL_CLASSES[config.backend](renderer, config)


def __getattr__(name: str):
    if name in _POOL_EXPORTS:
        from . import parallel

        return getattr(parallel, name)
    if name in _BACKEND_EXPORTS:
        from .parallel import backend

        return getattr(backend, name)
    if name in _SHARD_EXPORTS:
        from . import shard

        return getattr(shard, name)
    if name in _MOVIE_EXPORTS:
        from . import movie

        return getattr(movie, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
