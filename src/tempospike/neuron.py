"""Leaky integrate-and-fire dynamics with learnable leak and threshold.

A neuron carries its membrane potential between timesteps; each step leaks the
retained potential, integrates the weighted input drive, and resets where the
previous step spiked. Reset is either subtractive ("soft", threshold removed
from the potential) or zeroing ("hard", retained potential cleared before
integration). Spiking uses the strict rule: a spike is emitted iff the
normalized drive exceeds the threshold, i.e. U/V_th - 1 > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import SurrogateConfig, Tensor, lif_update, spike

LEAK_MIN = 1e-3
LEAK_MAX = 1.0 - 1e-3
THRESHOLD_MIN = 1e-2

RESET_MODES = ("soft", "hard")


def init_violations(leak: float, threshold: float) -> list[str]:
    """Why an initial leak or threshold lies outside the range that training
    clamps it to; empty when both lie inside."""
    v = []
    if not LEAK_MIN <= leak <= LEAK_MAX:
        v.append(f"leak_init must lie in [{LEAK_MIN}, {LEAK_MAX}], got {leak}")
    if not THRESHOLD_MIN <= threshold < math.inf:
        v.append(f"threshold_init must be finite and >= {THRESHOLD_MIN}, got {threshold}")
    return v


@dataclass
class LifParams:
    """Per-layer scalar leak and threshold."""

    leak: Tensor
    threshold: Tensor
    reset_mode: str = "soft"

    @classmethod
    def create(cls, leak: float = 0.6, threshold: float = 1.0,
               reset_mode: str = "soft") -> "LifParams":
        violations = init_violations(leak, threshold)
        if violations:
            raise ValueError("; ".join(violations))
        if reset_mode not in RESET_MODES:
            raise ValueError(f"reset_mode must be one of {RESET_MODES}, got {reset_mode!r}")
        return cls(
            leak=Tensor(leak, requires_grad=True),
            threshold=Tensor(threshold, requires_grad=True),
            reset_mode=reset_mode,
        )


@dataclass
class LifState:
    """Membrane potentials and the previous step's spikes for one layer."""

    membrane: Tensor
    prev_spikes: Tensor

    @classmethod
    def zeros(cls, shape) -> "LifState":
        return cls(membrane=Tensor(np.zeros(shape)), prev_spikes=Tensor(np.zeros(shape)))


def lif_step(state: LifState, weighted_input: Tensor, params: LifParams,
             surr: SurrogateConfig, spike_mode: str = "hard") -> tuple[Tensor, LifState]:
    """Advance one timestep; returns (spikes, new state).

    ``weighted_input`` must already contain the full synaptic drive for this
    step, including any skip-connection contribution. Under a tape the step
    records ``lif_update``, ``normalized_drive`` and ``spike``. For their
    backward passes they keep one float array, the new membrane (which the
    next step's ``lif_update`` keeps too), and the previous spikes at one
    byte per value when every value is 0 or 1.
    """
    if weighted_input.shape != state.membrane.shape:
        raise ValueError(
            f"drive shape {weighted_input.shape} does not match membrane {state.membrane.shape}"
        )
    membrane = lif_update(state.membrane, weighted_input, state.prev_spikes,
                          params.leak, params.threshold, params.reset_mode)
    spikes = spike(membrane, params.threshold, surr, mode=spike_mode)
    return spikes, LifState(membrane=membrane, prev_spikes=spikes)


def clamp_leak(leak: Tensor) -> None:
    """Pull a leak back inside [LEAK_MIN, LEAK_MAX] in place."""
    np.clip(leak.data, LEAK_MIN, LEAK_MAX, out=leak.data)


def clamp_params(params: LifParams) -> LifParams:
    """Pull leak and threshold back inside their valid ranges in place.

    Gradient updates can push the leak past 1 or the threshold below zero,
    where the dynamics stop being meaningful.
    """
    clamp_leak(params.leak)
    np.clip(params.threshold.data, THRESHOLD_MIN, None, out=params.threshold.data)
    return params
