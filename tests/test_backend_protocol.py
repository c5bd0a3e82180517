"""Tests for the :class:`RenderBackend` protocol (ROADMAP item 5).

Every execution model — mp pool, thread transport, shard fleet — must
be drivable through the same four-member seam (``submit_batch`` /
``result`` / ``close`` / ``trace``), and the per-call pool
kwargs deprecated in 1.x are gone in 2.0: the constructors take
``(renderer, config)`` and nothing else.  Bit-identity and the result
contract on every backend are ``tests/test_conformance.py``'s.
"""

import warnings

import pytest

import repro
from repro.parallel import (
    POOL_CLASSES,
    FrameSpec,
    MPRenderPool,
    PoolConfig,
    RenderBackend,
    ThreadRenderPool,
    as_frame_specs,
)
from repro.shard import ShardedRenderService


def _views(renderer, n):
    return [renderer.view_from_angles(20, 30 + 3 * i, 0) for i in range(n)]


POOL_SHAPES = [
    pytest.param(dict(n_procs=2, backend="thread"), id="thread"),
    pytest.param(dict(n_procs=2), id="mp"),
    pytest.param(dict(n_procs=1, shards=2), id="shard"),
]


class TestProtocolConformance:
    @pytest.mark.parametrize("overrides", POOL_SHAPES)
    def test_isinstance_and_trace_flag(self, renderer, overrides):
        """What a caller may ask a backend is whether it traces: every
        pool profiles on demand and balances its bands by that profile
        alone, so there is no capabilities struct to consult."""
        with repro.open_pool(renderer, **overrides) as pool:
            assert isinstance(pool, RenderBackend)
            assert pool.trace is False
            assert not hasattr(pool, "capabilities")

    def test_trace_flag_follows_the_config(self, renderer):
        cfg = PoolConfig(n_procs=2, backend="thread", trace=True)
        with repro.open_pool(renderer, config=cfg) as pool:
            assert pool.trace is True

    def test_as_frame_specs_passthrough(self, renderer):
        view = renderer.view_from_angles(20, 30, 0)
        spec = FrameSpec(view=view, timestep=2)
        wrapped = as_frame_specs([spec, view])
        assert wrapped[0] is spec
        assert isinstance(wrapped[1], FrameSpec)
        assert wrapped[1].timestep is None

    @pytest.mark.parametrize("backend", list(POOL_CLASSES))
    def test_one_mapping_picks_every_pool_class(self, renderer, backend):
        """``PoolConfig.backend`` names a class in ``POOL_CLASSES``, and
        that one mapping is what the facade opens and what each shard
        of a fleet opens: the fleet never asks which backend it has."""
        kind = POOL_CLASSES[backend]
        with repro.open_pool(renderer, n_procs=1, backend=backend) as pool:
            assert type(pool) is kind
        with repro.open_pool(renderer, n_procs=1, shards=2,
                             backend=backend) as fleet:
            assert [type(p) for p in fleet._pools] == [kind, kind]

    def test_shard_service_rejects_caller_regions(self, renderer):
        with repro.open_pool(renderer, n_procs=1, shards=2) as svc:
            assert isinstance(svc, ShardedRenderService)
            with pytest.raises(ValueError):
                svc.submit(renderer.view_from_angles(20, 30, 0),
                           region=object())


class TestConfigIsTheOnlyWayIn:
    """A pool takes ``(renderer, config)``: any other keyword raises,
    options that no longer exist included, and ``PoolConfig`` and the
    facade's overrides are the only (and silent) ways in."""

    @pytest.mark.parametrize("pool_cls", [MPRenderPool, ThreadRenderPool])
    def test_any_other_kwarg_raises(self, renderer, pool_cls):
        with pytest.raises(TypeError):
            pool_cls(renderer, n_procs=1)
        with pytest.raises(TypeError):
            pool_cls(renderer, 1)  # the old positional n_procs
        with pytest.raises(TypeError):
            pool_cls(renderer, PoolConfig(n_procs=1), trace=True)
        assert not hasattr(repro.parallel, "render_parallel_mp")
        assert not hasattr(repro.parallel, "render_parallel_threads")

    def test_config_path_stays_silent(self, renderer):
        cfg = PoolConfig(n_procs=1, backend="thread")
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with repro.open_pool(renderer, config=cfg) as pool:
                pool.result(pool.submit_batch(_views(renderer, 1))[0])

    def test_open_pool_overrides_stay_silent(self, renderer):
        """The facade's keyword overrides are the blessed path — they
        build a PoolConfig directly and must never warn."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with repro.open_pool(renderer, n_procs=1,
                                 backend="thread") as pool:
                pool.result(pool.submit_batch(_views(renderer, 1))[0])

    def test_steal_chunk_is_not_an_option(self, renderer):
        """The pools do not steal, so there is no grain to set: neither
        the config nor the facade takes one."""
        with pytest.raises(TypeError, match="steal_chunk"):
            repro.PoolConfig(steal_chunk=8)
        with pytest.raises(TypeError, match="steal_chunk"):
            repro.open_pool(renderer, steal_chunk=2)

    def test_stealing_is_not_an_option(self, renderer):
        """Nor is there stealing to turn on or off."""
        with pytest.raises(TypeError, match="stealing"):
            repro.PoolConfig(stealing=False)
        with pytest.raises(TypeError, match="stealing"):
            repro.open_pool(renderer, stealing=False)
