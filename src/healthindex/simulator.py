"""Deterministic synthetic panels: two classes, one of them drifting.

Normal subjects are pure per-feature Gaussian noise around zero. Diseased
subjects add a linear mean drift per visit on a fixed sparse block of
informative features, giving the monotone degradation the index learners
assume. Labels are observed for a configurable fraction of each class and
hidden otherwise; the full truth is returned separately for scoring.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Annotated

import numpy as np

from .errors import GE_ZERO, Config, Range
from .panel import NEGATIVE, POSITIVE, LongitudinalPanel, write_panel

FORMAT_VERSION = 1


@dataclass(frozen=True)
class SimConfig(Config):
    """Generation knobs.

    ``normal_proportion=None`` keeps both classes at ``n_per_class``; setting
    it explicitly re-splits the same total with floor rounding, because equal
    class sizes and a 60/40 proportion cannot both hold at once.
    ``noise_sigmas=None`` draws per-feature sigmas from Uniform(0.5, 1.5)
    under the seed. Class means sit at zero; ``degradation_rate`` is the only
    mean signal.
    """

    d: Annotated[int, Range(1)] = 90
    n_per_class: Annotated[int, Range(1)] = 50
    normal_proportion: Annotated[float, Range(0, 1, open_low=True, open_high=True)] | None = None
    visits_min: Annotated[int, Range(1)] = 3
    visits_max: Annotated[int, Range(1)] = 7
    degradation_rate: Annotated[float, GE_ZERO] = 0.2
    noise_sigmas: Annotated[tuple[float, ...], GE_ZERO] | None = None
    informative_k: Annotated[int, GE_ZERO] = 20
    label_observed_fraction: Annotated[float, Range(0, 1)] = 0.2
    seed: Annotated[int, GE_ZERO] = 0

    def __post_init__(self):
        super().__post_init__()
        if self.visits_max < self.visits_min:
            raise ValueError("need visits_min <= visits_max")
        if self.informative_k > self.d:
            raise ValueError("informative_k must be <= d")
        if self.noise_sigmas is not None and len(self.noise_sigmas) != self.d:
            raise ValueError("noise_sigmas must have length d")

    def class_sizes(self) -> tuple[int, int]:
        """(n_normal, n_diseased) after resolving the proportion rule."""
        if self.normal_proportion is None:
            return self.n_per_class, self.n_per_class
        total = 2 * self.n_per_class
        n_normal = int(np.floor(self.normal_proportion * total))
        n_diseased = total - n_normal
        if n_normal < 1 or n_diseased < 1:
            raise ValueError("normal_proportion leaves an empty class")
        return n_normal, n_diseased

    def informative_indices(self) -> tuple[int, ...]:
        return tuple(range(self.informative_k))


def _generate(config: SimConfig):
    rng = np.random.default_rng(config.seed)
    if config.noise_sigmas is None:
        sigmas = rng.uniform(0.5, 1.5, config.d)
    else:
        sigmas = np.asarray(config.noise_sigmas, dtype=float)

    n_normal, n_diseased = config.class_sizes()
    total = n_normal + n_diseased
    width = max(3, len(str(total)))
    k = config.informative_k
    delta = config.degradation_rate

    ids = tuple(f"s{j:0{width}d}" for j in range(1, total + 1))
    labels = np.repeat([NEGATIVE, POSITIVE], [n_normal, n_diseased])
    blocks = []
    for class_label in labels.tolist():
        n_visits = int(rng.integers(config.visits_min, config.visits_max + 1))
        x = rng.standard_normal((n_visits, config.d)) * sigmas
        if class_label == POSITIVE and k > 0:
            x[:, :k] += delta * np.arange(n_visits)[:, None]
        blocks.append(x)
    truth = dict(zip(ids, labels.tolist()))

    # hide labels outside a floor(fraction * class size) observed subset per class
    observed = np.zeros(total, dtype=bool)
    for offset, count in ((0, n_normal), (n_normal, n_diseased)):
        n_observed = int(np.floor(config.label_observed_fraction * count))
        observed[offset + rng.choice(count, size=n_observed, replace=False)] = True
    counts = [x.shape[0] for x in blocks]
    offsets = np.cumsum([0] + counts)
    panel = LongitudinalPanel(
        ids,
        offsets,
        np.arange(offsets[-1]) - np.repeat(offsets[:-1], counts) + 1,
        np.vstack(blocks),
        np.where(observed, labels, 0),
    )
    return panel, truth, sigmas


def simulate(config: SimConfig) -> tuple[LongitudinalPanel, dict[str, int]]:
    """Generate a panel plus the full ground-truth label map."""
    panel, truth, _ = _generate(config)
    return panel, truth


def simulate_to_files(config: SimConfig, csv_path, echo_path=None):
    """Generate once, write the panel CSV and optionally the config echo.

    The echo records every resolved quantity (sigmas, informative feature
    indices, true labels) so oracle tests can reconstruct the ground truth;
    training code never reads it.
    """
    panel, truth, sigmas = _generate(config)
    write_panel(panel, csv_path)
    if echo_path is not None:
        echo = {
            "format_version": FORMAT_VERSION,
            "config": config.to_dict(),
            "class_sizes": list(config.class_sizes()),
            "resolved_noise_sigmas": [float(s) for s in sigmas],
            "informative_indices": list(config.informative_indices()),
            "true_labels": {sid: int(lbl) for sid, lbl in sorted(truth.items())},
        }
        Path(echo_path).write_text(json.dumps(echo, indent=2, sort_keys=True) + "\n")
    return panel, truth
