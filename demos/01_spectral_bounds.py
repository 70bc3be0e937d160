"""Where the quantum advantage lives: eigenvalue bounds of the game operator.

The score of the orientation game is the expectation of a single 4x4
self-adjoint operator, so the best and worst any state can do at fixed
measurement angles are its extreme eigenvalues. This script walks the
two measurement families, compares the closed-form spectra with the
numeric eigensolver, and locates the global optimum.
"""

import numpy as np

from qorient import (
    OneParam,
    TwoParam,
    bell_content_label,
    closed_form_one_param,
    closed_form_two_param,
    find_optimum,
    numeric_spectrum,
)

DEG = np.pi / 180


def main():
    print("=== Spectrum at the optimal angles (phi, theta) = (60, -60) deg ===")
    cf = closed_form_two_param(60 * DEG, -60 * DEG)
    num = numeric_spectrum(TwoParam(60 * DEG, -60 * DEG))
    print(f"closed form : {np.round(cf.as_array(), 12)}")
    print(f"numeric     : {np.round(num.eigenvalues, 12)}")
    print(f"top of spectrum {num.eigenvalues[0]:.6f} beats the classical bound 7;")
    print(f"bottom {num.eigenvalues[-1]:.6f} is the worst possible score there.\n")

    print("=== Who achieves the bounds? Bell content of the eigenvectors ===")
    for k, lam in enumerate(num.eigenvalues):
        label = bell_content_label(num.eigenvectors[:, k], tol=1e-6)
        print(f"  eigenvalue {lam:6.3f}  <-  {label}")
    print()

    print("=== Closed form vs numeric across random angle pairs ===")
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(500):
        phi, theta = rng.uniform(-np.pi / 2, np.pi / 2, size=2)
        closed = closed_form_two_param(phi, theta).sorted_descending()
        numeric = numeric_spectrum(TwoParam(phi, theta)).eigenvalues
        worst = max(worst, np.abs(closed - numeric).max())
    print(f"worst eigenvalue disagreement over 500 samples: {worst:.3e}\n")

    print("=== Single-parameter family: every eigenvalue owns a Bell state ===")
    for deg in (0, 30, 60, 90):
        cf = closed_form_one_param(deg * DEG)
        pairs = ", ".join(f"{lab}:{lam:5.2f}" for lab, lam
                          in zip(cf.eigenvector_labels, cf.as_array()))
        print(f"  theta = {deg:3d} deg  ->  {pairs}")
    print()

    print("=== Grid search + refinement over both families ===")
    for family, name in ((TwoParam, "two-parameter"), (OneParam, "one-parameter")):
        for objective in ("max", "min"):
            opt = find_optimum(family, objective)
            params = ", ".join(f"{np.degrees(x):.4f}"
                               for x in opt.parametrization.__dict__.values())
            print(f"  {name:13s} {objective}: beta = {opt.beta:.9f} at ({params}) deg, "
                  f"achieved by {opt.state_label}; grid ties: {opt.grid_candidates_deg}")


if __name__ == "__main__":
    main()
