"""Walk one mode hypothesis through the whole estimation machinery by hand.

A two-sensor plant, one attacked sensor assumed.  We print every piece the
decomposition produces, verify the algebra that makes the observer work,
then run a short honest (attack-free) episode and watch the residual sit
far below its threshold while the state ball keeps containing the truth.

Run:  python3 demos/observer_tour.py
"""

import numpy as np

from smio.decomposition import decompose_mode, error_dynamics, synthesize_gains
from smio.model import SystemModel, enumerate_modes
from smio.modeguard import ThresholdTracker, eliminate, residual
from smio.observer import init_observer, set_estimates, step
from smio.sim import ScenarioConfig, simulate_plant

np.set_printoptions(precision=4, suppress=True)

# ----------------------------------------------------------------------
# 1. The plant: two states, one known input, two sensors, both of which
#    an attacker could in principle touch (H = I).  No actuator channel
#    is vulnerable here (G has zero width).
# ----------------------------------------------------------------------
model = SystemModel(
    A=np.diag([0.3, 0.4]),
    B=np.array([[1.0], [0.0]]),
    C=np.eye(2),
    D=np.array([[0.0], [0.5]]),
    G=np.zeros((2, 0)),
    H=np.eye(2),
    eta_w=0.01,
    eta_v=0.001,
    delta_x0=0.2,
)
print("plant: n =", model.n, " inputs m =", model.m, " sensors l =", model.l)
print("noise bounds: ||w|| <=", model.eta_w, " ||v|| <=", model.eta_v,
      " initial error <=", model.delta_x0)

# Hypotheses: exactly one of the two sensor channels is compromised.
modes = enumerate_modes(0, 2, 1, model.G, model.H)
for m in modes:
    print(f"  hypothesis {m.id}: attacked sensors {m.sensor_set}")

# ----------------------------------------------------------------------
# 2. Decompose under hypothesis 1 (sensor 1 attacked).  The output is
#    rotated so the attacked direction is isolated: the T1 rows still
#    see the attack, the T2 rows are provably attack-free.
# ----------------------------------------------------------------------
mode = modes[0]
dec = decompose_mode(model, mode)
print("\n--- decomposition for hypothesis", mode.id, "---")
print("attack rank p_H =", dec.p_H)
print("T1 (attack-facing rows):\n", dec.T1)
print("T2 (attack-free rows):\n", dec.T2)
print("C1 =", dec.C1, " C2 =", dec.C2)
print("D1 =", dec.D1, " D2 =", dec.D2)

gains = synthesize_gains(dec, model)
print("\ngains: M1 =", gains.M1, " M2 =", gains.M2)
print("correction gain Ltilde:\n", gains.Ltilde)

dyn = error_dynamics(dec, gains, model)
print("\nerror map Ae:\n", dyn.Ae)
print("contraction factor theta = ||Ae||_2 =", round(dyn.theta, 6))

# The three identities everything rests on, checked with plain numpy:
print("\nidentity checks (should all be ~0):")
print("  M1 Sigma - I      :", np.abs(gains.M1 @ dec.Sigma - np.eye(dec.p_H)).max())
print("  T2 Hq             :", np.abs(dec.T2 @ mode.Hq).max())
rho_Ae = max(abs(np.linalg.eigvals(dyn.Ae)))
print("  spectral radius   :", round(float(rho_Ae), 6), "(must be < 1)")

# ----------------------------------------------------------------------
# 3. A short honest episode: the true mode matches the hypothesis and
#    the attacker stays silent, so the residual must stay under the
#    threshold at every step -- that is the soundness contract.
# ----------------------------------------------------------------------
cfg = ScenarioConfig(
    model=model,
    modes=tuple(modes),
    true_mode=mode.id,
    horizon=12,
    noise_seed=7,
    known_input=np.ones((13, 1)) * 0.3,
)
xs, ys = simulate_plant(cfg)
u = cfg.inputs

state = init_observer(np.zeros(2), model.delta_x0)
tracker = ThresholdTracker(
    dyn, dec, eta_w=model.eta_w, eta_v=model.eta_v, delta_x0=model.delta_x0
)

print("\n k |  r_norm   threshold  verdict |  est err   delta_x  contained")
print("---+------------------------------+-----------------------------")
for k in range(cfg.horizon + 1):
    state = step(state, dec, gains, dyn, u[k], ys[k], model)
    if state.k < 1:
        continue  # the first call only latches the time-0 pair
    dinf, dtri, _ = tracker.advance()
    r = residual(dec, state.xhat_star, u[k], ys[k])
    r_norm = float(np.linalg.norm(r))
    delta_hat = dtri if dinf is None else min(dinf, dtri)
    verdict = "ALARM" if eliminate(r_norm, delta_hat) else "ok"
    xball, dball = set_estimates(state)
    err = float(np.linalg.norm(xball.center - xs[k]))
    inside = err <= xball.radius
    print(f"{k:2d} | {r_norm:8.5f}  {delta_hat:8.5f}   {verdict:5s}  |"
          f" {err:8.5f}  {xball.radius:7.4f}   {inside}")

print("\nThe residual never gets near the threshold on an honest run, and")
print("the true state stays inside the published ball at every step.")
print("The attack estimate after the last step:",
      np.round(set_estimates(state)[1].center, 4),
      "+/-", round(set_estimates(state)[1].radius, 4),
      " (the silent attacker is consistent with ~0).")
