"""Open-system model of a laser-driven single fluorophore coupled to
configurational environment macrostates: block Lindblad rate generators,
steady states, field correlations, optical spectra, and photon-counting
statistics."""

__version__ = "0.1.0"

from .correl import (ObservableSeries, ZeroIntensity, c1, c2, g2, qrt_two_time,
                     stationary_intensity)
from .counting import (CountingRecord, CountingSplit, ZeroCounts,
                       counting_record, counting_split, detuning_sweep,
                       line_shape, mandel_q, mean_counts, pn,
                       second_factorial, stationary_mandel)
from .model import (BlockState, ConfigSpace, FluctuationRates,
                    GeneralJumpChannel, ModelSpec, OperatorKind,
                    PerStateParams, SuperOp, build_generator, validate)
from .scenarios import (BlinkingApprox, blinking_rates,
                        classical_blinking_populations, diffusion_chain,
                        lifetime_fluct, light_assisted, mandel_detuning_limit,
                        mapped_self_fluct, scaled_triplet, single_state,
                        spectral_two_state)
from .spectrum import coherent_weight, incoherent_spectrum, sum_rule_check
from .steady import (NullSpaceDegenerate, Prepared, SingularShift,
                     SteadyDecomposition, config_populations,
                     laurent_decomposition, prepare, steady_state)

__all__ = [name for name in dir() if not name.startswith("_")]
