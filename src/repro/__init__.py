"""repro — reproduction of Jiang & Singh, "Improving Parallel Shear-Warp
Volume Rendering on Shared Address Space Multiprocessors" (PPoPP 1997).

Top-level facade
----------------
The stable entry points for rendering with the real multiprocessing
backend live here, so callers configure everything through one
:class:`PoolConfig` instead of threading keyword arguments through
three layers::

    import repro

    cfg = repro.PoolConfig(n_procs=4, profile_period=5)
    res = repro.render_frame(renderer, view, config=cfg)   # one frame

    with repro.open_pool(renderer, config=cfg) as pool:    # animation
        handles = [pool.submit(v) for v in views]
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
``parallel``     execution models (event-driven simulator, multiprocessing)
``memsim``       trace-driven multiprocessor memory-system simulator
``analysis``     speedups, time breakdowns, working-set analyses
``obs``          span tracing, Chrome trace export, metrics
"""

__version__ = "5.0.0"

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
    "BackendCapabilities",
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
    "__version__", "open_pool", "render_frame", *_POOL_EXPORTS,
    *_BACKEND_EXPORTS, *_SHARD_EXPORTS, *_MOVIE_EXPORTS,
]


def open_pool(renderer, config=None, **overrides):
    """Open a persistent render pool (use as a context manager).

    ``config`` is a :class:`PoolConfig`; keyword overrides build one
    (``open_pool(r, n_procs=4)``) or refine a given config
    (``open_pool(r, cfg, trace=True)``).  ``config.backend`` selects
    the pool class: ``"mp"`` (default) opens the fork-based
    :class:`MPRenderPool`, ``"thread"`` the no-copy
    :class:`~repro.parallel.thread_backend.ThreadRenderPool` — both
    expose the same ``submit``/``submit_batch``/``render_animation``/
    ``result`` API and produce bit-identical images.

    ``config.shards > 1`` (``open_pool(r, shards=4)``) opens a
    :class:`~repro.shard.ShardedRenderService` instead — a fleet of
    pools, one per contiguous scanline shard, merged sort-last into
    bit-identical frames behind the same pool API.
    """
    from .parallel import MPRenderPool, PoolConfig, ThreadRenderPool

    if config is None:
        config = PoolConfig(**overrides)
    elif overrides:
        config = config.replace(**overrides)
    if config.shards > 1:
        from .shard import ShardedRenderService

        return ShardedRenderService(renderer, config)
    kind = ThreadRenderPool if config.backend == "thread" else MPRenderPool
    return kind(renderer, config)


def render_frame(renderer, view, config=None, **overrides):
    """Render one frame through a transient pool of the configured backend.

    The one-shot counterpart of :func:`open_pool` — ``open_pool(...)``
    plus ``render(view)``.  Without a ``config``, ``profile_period``
    defaults to 0 here (a single frame has no next frame for its profile
    to balance).  For animations keep a pool alive across frames
    instead: fork, shared-memory setup and the first slice decodes are
    then paid once, and a measured profile has a next frame to balance.
    """
    if config is None:
        overrides.setdefault("profile_period", 0)
    with open_pool(renderer, config, **overrides) as pool:
        return pool.render(view)


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
