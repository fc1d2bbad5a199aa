"""End-to-end tests for the ``/runs/{id}/viz/{view}`` endpoints.

Real server, real sockets, like :mod:`tests.test_serve_service` — the
viz path additionally pins the artifact-cache contract (first fetch
misses, identical second fetch hits) and the response headers a
pan/zoom client steers by (``X-Lod-Level``, ``X-Viewport``,
``X-Horizon``).
"""

import hashlib
import json

import pytest

from repro import ActorProf, ProfileFlags
from repro.apps import histogram
from repro.exec.cache import ResultCache
from repro.machine.spec import MachineSpec
from repro.serve import ServeError, ServerConfig, ServerThread


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    ap = ActorProf(ProfileFlags.all(enable_timeline=True))
    histogram(400, 64, MachineSpec(2, 2), profiler=ap)
    return ap.export_archive(tmp_path_factory.mktemp("viz") / "run.aptrc",
                             meta={"app": "hist"}, lod=True)


@pytest.fixture()
def server(tmp_path):
    config = ServerConfig(data_dir=tmp_path / "srv", port=0, shards=2,
                          workers=2, allow_shutdown=True)
    with ServerThread(config) as srv:
        yield srv


@pytest.fixture()
def client(server, archive):
    client = server.client()
    client.push(archive, run_id="demo")
    return client


@pytest.mark.parametrize("view", ["gantt", "heatmap", "timeline"])
def test_viz_endpoint_serves_svg_from_the_pyramid(client, view):
    svg, headers = client.viz("demo", view)
    assert "<svg" in svg
    assert headers["content-type"] == "image/svg+xml"
    assert headers["x-cache"] == "miss"
    level = int(headers["x-lod-level"])
    assert level >= 0
    t0, t1 = map(int, headers["x-viewport"].split("-"))
    assert 0 <= t0 < t1 <= int(headers["x-horizon"])


def test_second_fetch_hits_the_artifact_cache(client):
    svg_a, headers_a = client.viz("demo", "heatmap")
    svg_b, headers_b = client.viz("demo", "heatmap")
    assert headers_a["x-cache"] == "miss"
    assert headers_b["x-cache"] == "hit"
    assert svg_a == svg_b
    # a different viewport is a different artifact
    _, headers_c = client.viz("demo", "heatmap", t0=0, t1=1000)
    assert headers_c["x-cache"] == "miss"


def _untagged_viz_key(fingerprint, view, t0, t1, res):
    """The viz cache key before it named the renderer."""
    blob = json.dumps({"kind": "viz", "fingerprint": fingerprint,
                       "view": view, "t0": t0, "t1": t1, "res": res},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def test_render_cached_without_a_renderer_tag_is_not_served(
        server, client, tmp_path):
    """A store filled by an older renderer (say, unbinned heatmaps) keeps
    its entries, but they are never answered as hits."""
    fingerprint = client.show("demo")["fingerprint"]
    stale = {"svg": "<svg>stale unbinned heatmap</svg>", "level": 0,
             "width": 1, "t0": 0, "t1": 1, "horizon": 1,
             "time_resolved": True}
    store = ResultCache(server.config.data_dir / "artifacts")
    assert store.put(_untagged_viz_key(fingerprint, "heatmap", None, None,
                                       None), stale, tmp_path)
    svg, headers = client.viz("demo", "heatmap")
    assert headers["x-cache"] == "miss"
    assert svg != stale["svg"] and "<svg" in svg


def test_zoom_refines_the_lod_level(client):
    _, wide = client.viz("demo", "gantt")
    horizon = int(wide["x-horizon"])
    _, narrow = client.viz("demo", "gantt", t0=0, t1=max(horizon // 16, 1))
    assert int(narrow["x-lod-level"]) <= int(wide["x-lod-level"])


def test_viz_error_paths(client):
    with pytest.raises(ServeError) as excinfo:
        client.viz("demo", "sparkline")
    assert excinfo.value.status == 404
    with pytest.raises(ServeError) as excinfo:
        client.viz("demo", "gantt", res=0)
    assert excinfo.value.status == 400
    with pytest.raises(ServeError) as excinfo:
        client.viz("no-such-run", "gantt")
    assert excinfo.value.status == 404
    status, _, _ = client.request("GET", "/runs/demo/viz/gantt?t0=abc")
    assert status == 400


def test_viz_of_a_pyramid_missing_its_edge_section_is_a_400(
        server, archive, tmp_path):
    """A malformed pyramid is the client's archive at fault: the gantt
    still renders from the PE side, the heatmap is a 400 naming the
    LodError, and nothing is stored for it."""
    from repro.core.store.lod import EDGE_SECTION
    from tests.archive_tools import read_footer, rewrite_footer

    _, footer = read_footer(archive)
    del footer["sections"][EDGE_SECTION]
    client = server.client()
    client.push(rewrite_footer(archive, footer, out=tmp_path / "bent.aptrc"),
                run_id="bent")
    assert "<svg" in client.viz("bent", "gantt")[0]
    stores = client.stats()["artifacts"]["stores"]
    status, headers, body = client.request("GET", "/runs/bent/viz/heatmap")
    assert status == 400 and "x-cache" not in headers
    error = json.loads(body)["error"]
    assert error.startswith("viz failed: LodError: ")
    assert error.endswith("archive has no 'lod_edge' section (backfill "
                          "with `actorprof viz RUN --backfill`)")
    assert client.stats()["artifacts"]["stores"] == stores


def test_viz_on_legacy_archive_falls_back_to_flat(server, tmp_path):
    """Pre-pyramid uploads still render (in-memory flat fallback)."""
    from tests.test_golden_archives import GOLDEN_DIR

    client = server.client()
    client.push(GOLDEN_DIR / "histogram.aptrc", run_id="legacy")
    svg, headers = client.viz("legacy", "heatmap")
    assert "<svg" in svg
    assert headers["x-lod-level"] == "0"
