"""Tests for the command-line interface."""

import asyncio
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cli import main


class TestCLI:
    def test_pyproject_version_is_the_package_version(self):
        """One version: the build reads it from ``repro.__version__``."""
        tomllib = pytest.importorskip("tomllib")
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "pyproject.toml"), "rb") as f:
            meta = tomllib.load(f)
        assert "version" not in meta["project"]
        assert meta["project"]["dynamic"] == ["version"]
        assert meta["tool"]["setuptools"]["dynamic"]["version"] == {
            "attr": "repro.__version__"}

    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "mri512" in out
        assert "Origin2000" in out or "origin2000" in out

    def test_render_small(self, capsys, tmp_path):
        out_file = tmp_path / "img.npz"
        rc = main(["render", "--dataset", "mri128", "--scale", "0.12",
                   "--out", str(out_file)])
        assert rc == 0
        with np.load(out_file) as data:
            assert data["color"].ndim == 2
            assert data["alpha"].max() <= 1.0 + 1e-5

    def test_render_without_out(self, capsys):
        assert main(["render", "--dataset", "mri128", "--scale", "0.12"]) == 0
        assert "final image" in capsys.readouterr().out

    def test_render_movie(self, capsys, tmp_path):
        """--movie writes a PNG sequence byte-identical to the serial
        per-timestep reference, and a stats-compatible metrics snapshot."""
        out_dir = tmp_path / "frames"
        metrics = tmp_path / "metrics.json"
        rc = main(["render", "--movie", "--dataset", "beating_heart",
                   "--scale", "0.5", "--frames", "3", "--timesteps", "2",
                   "--procs", "1",
                   "--movie-out", str(out_dir),
                   "--metrics-out", str(metrics)])
        assert rc == 0
        assert "stage overlap" in capsys.readouterr().out

        from repro.movie import beating_heart_renderer, encode_png, to_gray8
        from repro.render.fast import render_fast

        r = beating_heart_renderer(0.5, timesteps=2)
        for i in range(3):
            view = r.view_from_angles(20.0, 30.0 + i * 3.0, 0.0)
            ref = render_fast(r, view, timestep=i % 2)
            blob = (out_dir / f"frame_{i:04d}.png").read_bytes()
            assert blob == encode_png(to_gray8(np.asarray(ref.final.color)))

        assert main(["stats", str(metrics)]) == 0
        assert "movie/frames_encoded=3" in capsys.readouterr().out

    def test_speedup_tiny(self, capsys):
        rc = main(["speedup", "--dataset", "mri128", "--machine", "challenge",
                   "--scale", "0.12", "--procs", "1,2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "old" in out and "new" in out

    def test_serve_caches_a_repeat_and_shuts_down(self, capsys, tmp_path):
        """``repro serve`` as a user starts it: one parseable line says
        where it listens, a repeated request is a cache hit, the
        ``shutdown`` op ends it with status 0, and ``repro stats``
        reads the hit back from its metrics snapshot.  (Coalescing is
        pinned deterministically by ``tests/test_serve.py``.)"""
        from repro.serve import RenderClient

        metrics = tmp_path / "serve_metrics.json"
        src = Path(repro.__file__).resolve().parents[1]
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--procs", "2",
             "--dataset", "mri128", "--scale", "0.08",
             "--metrics-out", str(metrics)],
            stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )
        try:
            line = proc.stdout.readline()
            assert "listening on" in line, line
            port = int(line.split("listening on ")[1].split()[0].rsplit(":", 1)[1])

            async def session():
                client = await RenderClient.connect("127.0.0.1", port)
                try:
                    req = {"op": "render", "ry": 30.0}
                    first = await client.request(dict(req))
                    repeat = await client.request(dict(req))
                    await client.request({"op": "shutdown"})
                finally:
                    await client.close()
                return first, repeat

            first, repeat = asyncio.run(session())
            proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert first["status"] == "ok" and not first["cached"]
        assert repeat["cached"] is True
        assert proc.returncode == 0
        assert main(["stats", str(metrics)]) == 0
        out = capsys.readouterr().out
        hits = re.search(r"serve/cache_hits=(\d+)", out)
        assert hits and int(hits.group(1)) >= 1
        # Two frames went out as raw planes: at least their bytes.
        sent = re.search(r"serve/bytes_sent=(\d+)", out)
        assert sent and int(sent.group(1)) > 2 * first["sections"][0].nbytes

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_rejects_unknown_machine(self):
        with pytest.raises(SystemExit):
            main(["speedup", "--machine", "cray"])


#: The render smokes' animation: four frames of a small mri256 proxy
#: through two workers (a batch of at least two frames is dealt whole,
#: "solo", to the workers, and a solo frame asks for no profile).
_ANIMATION = ["--dataset", "mri256", "--scale", "0.08", "--procs", "2",
              "--frames", "4"]
#: The movie smoke: two timesteps of the beating heart through a
#: two-shard fleet.
_MOVIE = ["--movie", "--dataset", "beating_heart", "--scale", "0.5",
          "--frames", "4", "--timesteps", "2", "--procs", "2",
          "--shards", "2"]


class TestRenderSmokes:
    """``repro render`` then ``repro stats``, as an operator runs them:
    one case per way of rendering, each checked by the counters their
    output prints that show its mechanism ran."""

    @pytest.mark.parametrize("args, kill, counters", [
        pytest.param(_ANIMATION, False, [r"pool/batch_frames=[1-9]",
                                          r"pool/solo_frames=4\b",
                                          r"hit ratio by worker: worker 0 "
                                          r"[01]\.\d{3} of \d+, worker 1 "],
                     id="mp"),
        pytest.param(_ANIMATION, True,
                     [r"worker_restarts=[1-9]", r"frames_retried=[1-9]"],
                     id="kill"),
        pytest.param(_ANIMATION + ["--shards", "2"], False,
                     [r"shard/merges=[1-9]", r"worker_restarts=0"],
                     id="shards"),
        pytest.param(_MOVIE, True,
                     [r"movie/frames_encoded=[1-9]",
                      r"worker_restarts=[1-9]"],
                     id="movie-kill"),
    ])
    def test_render_then_stats(self, monkeypatch, capsys, tmp_path, args,
                               kill, counters):
        import repro.parallel.poolcore as poolcore

        if kill:
            # Worker 1 of every pool — frame 1's, banded or dealt solo —
            # is SIGKILLed in frame 1, then the supervisor recovers it.
            monkeypatch.setattr(poolcore, "TEST_FAULT", (1, 1, "kill", "composite"))
        out = tmp_path / "out.json"
        if "--movie" in args:
            args = [*args, "--movie-out", str(tmp_path / "frames"),
                    "--metrics-out", str(out)]
        else:
            args = [*args, "--trace-out", str(out)]
        assert main(["render", *args]) == 0
        assert main(["stats", str(out)]) == 0
        text = capsys.readouterr().out
        for pattern in counters:
            assert re.search(pattern, text), pattern


class TestCLIErrorPaths:
    def test_animation_pool_failure_exits_typed_without_leaks(
            self, monkeypatch, capsys):
        """A mid-batch worker failure with recovery disabled must exit
        non-zero with the typed error *name* on stderr — not a
        traceback — and leave no shared-memory segment behind."""
        import repro.parallel.poolcore as poolcore

        # Worker 1, which the batch deals frame 1 to, raises out of its
        # compositing; retries and serial degradation are off, so the
        # animation fails mid-batch.
        monkeypatch.setattr(poolcore, "TEST_FAULT", (1, 1, "raise", "composite"))
        shm_dir = "/dev/shm"
        before = (set(os.listdir(shm_dir)) if os.path.isdir(shm_dir)
                  else None)
        rc = main(["render", "--dataset", "mri128", "--scale", "0.08",
                   "--procs", "2", "--frames", "3",
                   "--max-retries", "0", "--degrade", "off"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error: FrameFailed" in err
        assert "Traceback" not in err
        if before is not None:  # pool teardown unlinked every segment
            assert set(os.listdir(shm_dir)) - before == set()

    @pytest.mark.parametrize("flag, value, field", [
        ("--procs", "0", "n_procs"),
        ("--procs", "-3", "n_procs"),
        ("--max-retries", "-1", "max_retries"),
        ("--timeout-s", "0", "timeout_s"),
        ("--shards", "0", "shards"),
        ("--frames", "0", "frames"),
        ("--timesteps", "0", "timesteps"),
    ])
    def test_out_of_range_pool_flag_is_a_usage_error(self, capsys, flag,
                                                     value, field):
        """A value ``PoolConfig`` (or the frame / timestep count check)
        rejects exits 2 through the parser with the field named on one
        line — not a ValueError traceback, and not a silent clamp."""
        with pytest.raises(SystemExit) as exc:
            main(["render", "--procs", "2", flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"repro render: error: {field} must be" in err
        assert "Traceback" not in err

    def test_serve_rejects_a_worker_count_below_one(self, capsys):
        """``serve --procs 0`` is the same usage error, raised before
        anything listens."""
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--procs", "0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "repro serve: error: n_procs must be" in err
        assert "Traceback" not in err

    def test_serve_rejects_a_shard_count_below_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--shards", "0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "repro serve: error: shards must be" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        # The grain is a constant.
        pytest.param(["render", "--procs", "2", "--steal-chunk", "2"],
                     id="render-steal-chunk"),
        # Every pool composites with the block kernel.
        pytest.param(["render", "--procs", "2", "--kernel", "block"],
                     id="render-kernel"),
        pytest.param(["serve", "--kernel", "block"], id="serve-kernel"),
        # The CLI opens mp pools; the thread transport is the tests'.
        pytest.param(["render", "--procs", "2", "--backend", "thread"],
                     id="render-backend"),
        # --procs 0: were the flag still taken, no server would start.
        pytest.param(["serve", "--backend", "mp", "--procs", "0"],
                     id="serve-backend"),
        # The pool profiles on demand and does not steal.
        pytest.param(["render", "--procs", "2", "--profile-period", "5"],
                     id="render-profile-period"),
        pytest.param(["render", "--procs", "2", "--stealing", "off"],
                     id="render-stealing"),
    ])
    def test_removed_flag_is_unrecognized(self, capsys, argv):
        """A removed flag is one argparse does not know.  Its name in
        stderr would prove nothing: the usage line lists every flag that
        still exists."""
        flag = next(a for a in argv if a.startswith("--") and a != "--procs")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_stats_on_metrics_snapshot(self, capsys, tmp_path):
        """`repro stats` renders serve metrics snapshots (counters in
        greppable name=value form), not just Chrome traces."""
        import json

        snap = {"kind": "repro-metrics",
                "config": {"max_inflight": 4},
                "histograms": {"serve/latency_s": {
                    "count": 2, "total": 0.2, "mean": 0.1,
                    "p50": 0.1, "p90": 0.19, "max": 0.19}},
                "counters": {"serve/coalesced": 3, "serve/cache_hits": 5},
                "gauges": {"serve/pools": {"value": 1, "max": 2}}}
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(snap))
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "repro-metrics snapshot" in out
        assert "serve/coalesced=3" in out
        assert "serve/cache_hits=5" in out
        assert "serve/latency_s" in out

    def test_stats_serial_trace_prints_na_overhead(self, capsys, tmp_path):
        """A serial trace has no dispatch-side spans: the overhead line
        must say n/a instead of doing 0-vs-0 arithmetic."""
        trace = tmp_path / "trace.json"
        rc = main(["render", "--dataset", "mri128", "--scale", "0.08",
                   "--trace-out", str(trace)])
        assert rc == 0
        assert main(["stats", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "dispatch overhead: n/a" in out
