"""Why tempering matters: a mixture mean a single chain cannot average.

The target is 0.2 N(+1, I) + 0.8 N(-1, I) in two dimensions, so the
posterior mean is -0.6 per coordinate. A single HMC chain falls into
whichever mode it meets first; the tempered particle population keeps
both modes and reweights them correctly.
"""
import numpy as np

from islandmc.kernels import HmcConfig
from islandmc.mcmc import McmcConfig, run_chain_serial
from islandmc.smc import SmcConfig, run_smc
from islandmc.targets import make_bimodal_gmm

target = make_bimodal_gmm(2)
truth = target.mixture_mean()
kern = HmcConfig(step_size=0.1, leapfrog_steps=10)

res = run_smc(SmcConfig(n_particles=512, mutation_steps=16, kernel=kern), target, seed=0)
smc_mean = res.samples.mean(axis=0)

# give the chain the same per-particle epoch budget the SMC run used
epochs_pp = res.epochs.epochs / 512
steps = int(np.ceil((epochs_pp - 1) / (1 + kern.leapfrog_steps)))
chain, _ = run_chain_serial(
    McmcConfig(n_samples=steps, burn_in=0, thin=1, kernel=kern, mode="serial"),
    target, seed=0,
)

print(f"truth          : {truth}")
print(f"smc estimate   : {smc_mean.round(3)}")
print(f"chain estimate : {chain.mean(axis=0).round(3)}  ({steps} steps, same budget)")
print(f"smc error      : {np.abs(smc_mean - truth).mean():.3f}")
print(f"chain error    : {np.abs(chain.mean(axis=0) - truth).mean():.3f}")
