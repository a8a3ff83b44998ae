"""Run the built-in five-hypothesis benchmark and read the results honestly.

The benchmark plant has five states and five sensors.  Five channels are
vulnerable -- the single actuator plus sensors 1-4 -- and the attacker
holds four of them at once, giving five hypotheses (one per spared
channel).  Sensor 5 is the anchor: it cannot be attacked, it reads the
autonomous fifth state, and no vulnerable channel feeds that state.

A persistent sinusoid attack drives the true channel set, every observer
runs in parallel, and the trace records residuals, thresholds, set
estimates, and the survivor set.  What to expect, and why:

* the true hypothesis survives the whole run (threshold soundness);
* the true state never leaves the published ball (containment);
* NO wrong hypothesis is eliminated -- a property of this plant, not a
  bug.  Each hypothesis projects out the four channels it distrusts,
  and what survives the projection is in every case the same thing: the
  attack-free sensor-5 innovation.  The demo prints the five residual
  vectors so you can see they are literally the same number wearing
  different coordinates.  Residual tests cannot separate hypotheses
  that monitor identical data; these five are separated by their
  estimates (and by the subspace certificate in
  demos/detectability_tour.py).  For a plant where elimination does
  fire, run demos/elimination_demo.py.

Run:  python3 demos/benchmark_run.py
"""

import warnings

import numpy as np

from smio.decomposition import ConservativeRadiusWarning
from smio.modeguard import residual
from smio.sim import benchmark_scenario, run_pipeline

cfg = benchmark_scenario(seed=3, horizon=120, true_mode=2)
mode_star = cfg.mode_by_id(cfg.true_mode)
print("true hypothesis:", cfg.true_mode,
      "- attacked actuators", mode_star.actuator_set,
      "and sensors", mode_star.sensor_set)
print("horizon:", cfg.horizon, " noise seed:", cfg.noise_seed)

with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    trace = run_pipeline(cfg)
radius_warnings = [w for w in caught if issubclass(w.category, ConservativeRadiusWarning)]
print(f"\ngain synthesis warned {len(radius_warnings)} times: every error map here")
print("is stable in spectrum but norm-expansive (theta >= 1), so the published")
print("per-step ball radii follow a recursion that never contracts.  The radii")
print("below are astronomically loose -- sound, and useless.  The residuals,")
print("thresholds, and point estimates are unaffected.")

# Each hypothesis's last residual test is at its last live step.
last = {q: int(np.flatnonzero(trace.live[:, i])[-1]) for i, q in enumerate(trace.mode_ids)}

print("\nper-hypothesis summary at the final step:")
print(" q | last r_norm | threshold | margin    | eliminated")
print("---+-------------+-----------+-----------+-----------")
for i, q in enumerate(trace.mode_ids):
    r_norm, delta_hat = trace.r_norm[last[q], i], trace.delta_hat[last[q], i]
    margin = delta_hat - r_norm
    print(f" {q} | {r_norm:11.6f} | {delta_hat:9.6f} | {margin:+9.6f} |"
          f" {trace.eliminated_at[q]}")

print("\nfinal active set:", trace.final_active)
print("containment violations:", trace.containment_violations)

print("\nwhy the rows above are identical -- the five residual vectors:")
for q in trace.mode_ids:
    k = last[q]
    r = residual(trace.bank[q][1], trace.snapshots[k][q].xhat_star, trace.inputs[k], trace.outputs[k])
    print(f"  hyp {q}: r =", np.round(r, 8))
print("Each hypothesis absorbed the four channels it distrusts; the only")
print("monitored direction left is sensor 5, which no attack can reach.")

# The wrong observers still disagree about the state: the attack they
# wrongly trust distorts their estimates, visibly so against the truth.
x_true = trace.states[-1]
print("\nfinal state estimates vs truth", np.round(x_true, 3), ":")
for i, q in enumerate(trace.mode_ids):
    err = float(np.linalg.norm(trace.xhat[-1, i] - x_true))
    tag = "<- true hypothesis" if q == cfg.true_mode else ""
    print(f"  hyp {q}: err {err:8.4f}   ball radius {trace.delta_x[-1, i]:.2e} {tag}")

print("\nAll five survive by design here; the guarantees that matter are that")
print("the TRUE hypothesis is never the one eliminated, and that its ball")
print("always contains the real state.")
