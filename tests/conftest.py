"""Shared fixtures: a synthetic natural scene saved through the real file
formats, plus cached experiment runs that several tests score."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import settings

from splidar import ScanConfig, Scene, save_scene
from splidar.scene import load_scene_dir

# Property tests draw the same examples on every run and keep no example
# database, so tier-1 stays reproducible. Hypothesis still caches the
# constants it mines from source files; that cache goes to a directory
# removed at exit instead of .hypothesis/ in the working tree.
settings.register_profile(
    "splidar", derandomize=True, database=None, deadline=None, max_examples=40
)
settings.load_profile("splidar")
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", _HYPOTHESIS_HOME.name)

ACCEPTANCE_VERDICTS = []


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance checklist after the test summary, uncaptured."""
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_VERDICTS):
            terminalreporter.write_line(line)


def synth_natural_scene(height=96, width=96, seed=7):
    """Middlebury-flavored ground truth: smooth depth ramp with rectangular
    and elliptical objects standing off the background, textured
    reflectivity everywhere (so every pixel carries depth truth).

    Reflectivity lands on the 16-bit grid and depths on float32 so the scene
    survives the file round-trip bit for bit.
    """
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:height, 0:width]
    depth = 4.2 + 0.8 * (yy / height)  # background wall, gentle slope
    refl = 0.45 + 0.25 * np.sin(2 * np.pi * xx / 31) * np.cos(2 * np.pi * yy / 23)

    boxes = [
        (8, 34, 10, 38, 3.1, 0.9),
        (50, 86, 20, 52, 3.6, 0.7),
        (26, 70, 60, 88, 2.8, 0.55),
    ]
    for y0, y1, x0, x1, d, r in boxes:
        depth[y0:y1, x0:x1] = d
        refl[y0:y1, x0:x1] = r
    cy, cx, ry, rx = 72, 24, 14, 12
    ellipse = ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 <= 1.0
    depth[ellipse] = 3.3
    refl[ellipse] = 0.8 + 0.1 * np.sin(2 * np.pi * xx[ellipse] / 9)

    refl += 0.03 * rng.standard_normal((height, width))
    refl = np.clip(refl, 0.15, 1.0)
    refl = np.rint(refl * 65535) / 65535  # exact on the 16-bit grid
    depth = np.float64(np.float32(depth))  # exact in the float map
    return Scene(reflectivity=refl, depth=depth)


@pytest.fixture(scope="session")
def natural_scene_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("natural") / "scene"
    save_scene(synth_natural_scene(), out)
    return out


@pytest.fixture(scope="session")
def natural_scene(natural_scene_dir):
    scene, _ = load_scene_dir(natural_scene_dir)
    return scene


# coarse binning keeps the heavyweight experiment tests inside their budgets
EXPERIMENT_SCAN = ScanConfig(n=4, jitter_fwhm=1e-9, bin_width=1.6e-9, n_bins=64)
