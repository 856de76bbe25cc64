"""Regenerate the bundled scenario files.

Run from the repository root:  python3 tools/make_scenarios.py
Region geometry marked "layout" below is configuration data chosen to
make the tasks well-posed, not a published constant.
"""

import json
import math
import os

OUT = os.path.join(os.path.dirname(__file__), "..", "src", "stlctrl",
                   "scenarios")


def box_pred(xi, yi, lo_x, hi_x, lo_y, hi_y):
    return (f"(x{xi} > {lo_x}) && (x{xi} < {hi_x}) && "
            f"(x{yi} > {lo_y}) && (x{yi} < {hi_y})")


def dubins(K, algorithm, max_iters, train_extra=None):
    a = K / 10.0
    goal_half = a / 40.0
    obs_half = a / 5.0
    goal = box_pred(0, 1, 0.9 * a - goal_half, 0.9 * a + goal_half,
                    0.9 * a - goal_half, 0.9 * a + goal_half)
    obs = box_pred(0, 1, 0.5 * a - obs_half, 0.5 * a + obs_half,
                   0.5 * a - obs_half, 0.5 * a + obs_half)
    formula = (f"F[{int(0.9 * K)},{K}]({goal}) && G[0,{K}](!({obs}))")
    train = {
        "algorithm": algorithm,
        "rho_bar": 0.0,
        "M": 1,
        "b": 15.0,
        "alpha": 0.05,
        "max_iters": max_iters,
    }
    # only the fields the trainer reads: the scenario loader rejects others
    if algorithm == "dropout":
        train.update(eps=1e-5, N=5, N1=10, N2=3)
    else:
        train["time_sampling"] = False
    if train_extra:
        train.update(train_extra)
    doc = {
        "name": f"dubins_k{K}",
        "plant": "dubins",
        "formula": formula,
        "seed": 2024,
        "policy": {"widths": [3, 20, 2], "include_time": True,
                   "time_scale": 1.0 / K, "init": "xavier"},
        "initial": {"low": [0.0, 0.0], "high": [0.0, 0.0],
                    "samples": [[0.0, 0.0]]},
        "train": train,
        "verify": {"m": 2000, "coverage": 0.995},
        "noise": {"c1": 0.0, "c2": 0.0},
    }
    if algorithm == "dropout":
        doc["waypoints"] = {
            "knots": [
                [0, [0.0, 0.0], [1, 1]],
                [int(0.45 * K), [0.8 * a, 0.1 * a], [1, 1]],
                [int(0.9 * K), [0.9 * a, 0.9 * a], [1, 1]],
                [K, [0.9 * a, 0.9 * a], [1, 1]],
            ],
        }
    return doc


def multi_dubins():
    # layout: agents start on a circle of radius 5 and swap to the
    # antipodal point; goal squares have half-width 0.3
    starts = []
    goals = []
    for i in range(10):
        ang = 2 * math.pi * i / 10
        sx, sy = 5 * math.cos(ang), 5 * math.sin(ang)
        starts += [round(sx, 4), round(sy, 4)]
        goals.append((round(-sx, 4), round(-sy, 4)))
    parts = []
    for i, (gx, gy) in enumerate(goals):
        reach = box_pred(2 * i, 2 * i + 1, gx - 0.3, gx + 0.3,
                         gy - 0.3, gy + 0.3)
        parts.append(f"F[20,48](G[0,12]({reach}))")
    d = 0.5
    for i in range(10):
        for j in range(i + 1, 10):
            xi, yi, xj, yj = 2 * i, 2 * i + 1, 2 * j, 2 * j + 1
            apart = (f"(x{xi} - x{xj} > {d}) || (x{xj} - x{xi} > {d}) || "
                     f"(x{yi} - x{yj} > {d}) || (x{yj} - x{yi} > {d})")
            parts.append(f"G[0,60]({apart})")
    formula = " && ".join(parts)
    knots = [[0, starts, [1] * 20], [34, [g for gg in goals for g in gg],
                                     [1] * 20],
             [60, [g for gg in goals for g in gg], [1] * 20]]
    return {
        "name": "multi_dubins_10",
        "plant": "multi_dubins_10",
        "formula": formula,
        "seed": 2024,
        "policy": {"widths": [21, 40, 20], "include_time": True,
                   "time_scale": 1.0 / 60, "init": "xavier"},
        "initial": {"low": starts, "high": starts, "samples": [starts]},
        "train": {"algorithm": "dropout", "rho_bar": 0.0, "eps": 1e-5,
                  "M": 12, "N": 5, "N1": 30, "N2": 1, "b": 15.0,
                  "alpha": 0.01, "max_iters": 4000},
        "waypoints": {"knots": knots},
        "verify": {"m": 2000, "coverage": 0.995},
        "noise": {"c1": 0.0, "c2": 0.0},
    }


def quad6_platform():
    # building footprint 10x10 at the origin, 30 high, inflated by the
    # required 4.5 m clearance
    obs = ("(x0 > -9.5) && (x0 < 9.5) && (x1 > -9.5) && (x1 < 9.5) && "
           "(x2 < 34.5)")
    goal = ("(x0 - x6 > -1) && (x0 - x6 < 1) && "
            "(x1 > -1) && (x1 < 1) && "
            "(x2 > 0.11) && (x2 < 0.6) && "
            "(x3 > 0) && (x3 < 2) && "
            "(x4 > -1) && (x4 < 1) && "
            "(x5 > -1) && (x5 < 1)")
    formula = (f"G[0,1500](!({obs})) && F[1100,1500]({goal}) && "
               f"G[0,1500](x6 > 9.5)")
    low = [-40.1, -0.1, 0, 0, 0, 0, 9.9]
    high = [-39.9, 0.1, 0, 0, 0, 0, 10.1]
    # waypoint path: climb over the building, then descend to the platform
    knots = [
        [0, [-40, 0, 0, 0, 0, 0, 10], [1, 1, 1, 0, 0, 0, 0]],
        [700, [-5, 0, 40, 0, 0, 0, 10], [1, 1, 1, 0, 0, 0, 0]],
        [1100, [10, 0, 10, 0, 0, 0, 10], [1, 1, 1, 0, 0, 0, 0]],
        [1500, [10.5, 0, 0.3, 0, 0, 0, 10.5], [1, 1, 1, 0, 0, 0, 0]],
    ]
    return {
        "name": "quad6_platform",
        "plant": "quad6_platform",
        "formula": formula,
        "seed": 2024,
        "policy": {"widths": [8, 20, 20, 10, 4], "include_time": True,
                   "time_scale": 1.0 / 1500, "init": "xavier"},
        "initial": {"low": low, "high": high, "samples": "corners_center"},
        "train": {"algorithm": "dropout", "rho_bar": 0.0, "eps": 1e-5,
                  "M": 100, "N": 15, "N1": 30, "N2": 3, "b": 15.0,
                  "alpha": 0.01, "max_iters": 2000},
        "waypoints": {"knots": knots},
        "verify": {"m": 2000, "coverage": 0.995},
        "noise": {"c1": 0.0, "c2": 0.0},
    }


def quad12():
    # layout: three hoops as axis-aligned boxes along a gentle ascent
    def hoop(cx, cy, cz):
        return box3(cx - 0.75, cx + 0.75, cy - 0.75, cy + 0.75,
                    cz - 0.75, cz + 0.75)

    def box3(lx, hx, ly, hy, lz, hz):
        return (f"(x0 > {lx}) && (x0 < {hx}) && (x1 > {ly}) && (x1 < {hy})"
                f" && (x2 > {lz}) && (x2 < {hz})")

    green = hoop(2.0, 0.0, -1.5)
    blue = hoop(4.0, 2.0, -3.0)
    red = hoop(6.0, 4.0, -4.5)
    formula = (f"F[10,15](({green}) && F[10,15](({blue}) && "
               f"F[10,15](({red}))))")
    low = [-0.1, -0.1, -0.1] + [0.0] * 9
    high = [0.1, 0.1, 0.1] + [0.0] * 9
    mask = [1, 1, 1] + [0] * 9
    knots = [
        [0, [0, 0, 0] + [0] * 9, mask],
        [12, [2.0, 0.0, -1.5] + [0] * 9, mask],
        [25, [4.0, 2.0, -3.0] + [0] * 9, mask],
        [40, [6.0, 4.0, -4.5] + [0] * 9, mask],
    ]
    return {
        "name": "quad12",
        "plant": "quad12",
        "formula": formula,
        "seed": 2024,
        "policy": {"widths": [13, 20, 20, 10, 4], "include_time": True,
                   "time_scale": 1.0 / 45, "init": "zero"},
        "initial": {"low": low, "high": high, "samples": "corners_center"},
        "train": {"algorithm": "dropout", "rho_bar": 0.0, "eps": 1e-5,
                  "M": 9, "N": 5, "N1": 30, "N2": 40, "b": 5.0,
                  "alpha": 0.01, "max_iters": 3000},
        "waypoints": {"knots": knots},
        "verify": {"m": 2000, "coverage": 0.995},
        "noise": {"c1": 0.0, "c2": 0.0},
    }


def integrator2d():
    # layout per the two-goal reach-avoid figure: both goals must be
    # held for 6 steps; the unsafe block sits between start and goals
    goal1 = box_pred(0, 1, -0.2, 0.6, 0.6, 1.4)
    goal2 = box_pred(0, 1, 0.6, 1.4, -0.2, 0.6)
    unsafe = box_pred(0, 1, -0.4, 0.4, -0.4, 0.4)
    formula = (f"F[0,44](G[0,5]({goal1})) && F[0,44](G[0,5]({goal2})) && "
               f"G[0,49](!({unsafe}))")
    return {
        "name": "integrator2d",
        "plant": "integrator2d",
        "formula": formula,
        "seed": 2024,
        "policy": {"widths": [3, 20, 20, 2], "include_time": True,
                   "time_scale": 1.0 / 50, "init": "xavier"},
        "initial": {"low": [-1.0, -1.0], "high": [-1.0, -1.0],
                    "samples": [[-1.0, -1.0]]},
        "train": {"algorithm": "vanilla", "rho_bar": 0.05, "M": 1, "b": 15.0,
                  "alpha": 0.05, "max_iters": 5000, "time_sampling": False,
                  "noise_training": True},
        "verify": {"m": 2000, "coverage": 0.995},
        "noise": {"c1": 0.0314, "c2": 0.0005},
    }


def scalar_power():
    # the always component starts at step 6: the uncontrolled state needs
    # six steps to decay below 0.1 from x0 = 1.15
    formula = "F[0,45](G[0,5](x0 > 0)) && G[6,50](1 - 10*x0 > 0)"
    return {
        "name": "scalar_power",
        "plant": "scalar_power",
        "formula": formula,
        "seed": 2024,
        "policy": {"widths": [1, 1], "include_time": False,
                   "time_scale": 1.0, "init": "given",
                   "theta": [0.49698, 0.0]},
        "initial": {"low": [1.15], "high": [1.15], "samples": [[1.15]]},
        "train": {"algorithm": "dropout", "rho_bar": 0.0, "eps": 1e-5,
                  "M": 5, "N": 3, "N1": 5, "N2": 3, "b": 15.0,
                  "alpha": 0.02, "max_iters": 200},
        "verify": {"m": 500, "coverage": 0.99},
        "noise": {"c1": 0.0, "c2": 0.0},
    }


def main():
    docs = [
        dubins(10, "vanilla", 200),
        dubins(50, "vanilla", 1500),
        dubins(100, "dropout", 1000),
        dubins(500, "dropout", 3000,
               {"M": 100, "N": 5, "N1": 10, "N2": 3}),
        dubins(1000, "dropout", 3000,
               {"M": 50, "N": 20, "N1": 10, "N2": 1, "eps": 1e-3,
                "alpha": 0.02}),
        multi_dubins(),
        quad6_platform(),
        quad12(),
        integrator2d(),
        scalar_power(),
    ]
    os.makedirs(OUT, exist_ok=True)
    for doc in docs:
        path = os.path.join(OUT, doc["name"] + ".json")
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print("wrote", path)


if __name__ == "__main__":
    main()
