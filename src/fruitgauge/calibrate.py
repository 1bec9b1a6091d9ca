"""Extrinsic rig calibration from synchronized checkerboard poses.

Each observation maps camera id to board pose (board frame -> camera frame),
one per camera that saw the board at that instant. Any pair seeing the board
simultaneously yields the camera-to-camera transform T = P_b o P_a^-1 with
T o P_a = P_b; repeated sightings are averaged (chordal mean of rotations,
arithmetic mean of translations) and chains are composed toward the anchor
camera, which defines the world frame.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Sequence, Tuple

from .errors import InsufficientObservations
from .geometry import (
    RigidTransform,
    compose,
    invert,
    mean_rotation,
    solve_camera_chain,
)

import numpy as np


def _average_transforms(samples: Sequence[RigidTransform]) -> RigidTransform:
    if len(samples) == 1:
        return samples[0]
    rot = mean_rotation([t.rotation for t in samples])
    tr = np.mean([t.translation for t in samples], axis=0)
    return RigidTransform(rot, tr)


def solve_rig(
    observations: Sequence[Dict[str, RigidTransform]], anchor: str
) -> Dict[str, RigidTransform]:
    """cam_to_world per camera, world = anchor camera frame.

    Cameras that never co-observe the board with a path to the anchor cannot
    be placed and raise InsufficientObservations.
    """
    cameras: List[str] = []
    edge_samples: Dict[Tuple[str, str], List[RigidTransform]] = {}
    for obs in observations:
        ids = list(obs)
        for cam_id in ids:
            if cam_id not in cameras:
                cameras.append(cam_id)
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                key = (a, b) if (a, b) in edge_samples or (b, a) not in edge_samples else (b, a)
                edge_samples.setdefault(key, []).append(
                    solve_camera_chain(obs[key[0]], obs[key[1]])
                )

    if anchor not in cameras:
        raise InsufficientObservations(f"anchor camera {anchor!r} appears in no observation")

    edges: Dict[Tuple[str, str], RigidTransform] = {
        key: _average_transforms(samples) for key, samples in edge_samples.items()
    }
    neighbors: Dict[str, List[str]] = {c: [] for c in cameras}
    for a, b in edges:
        neighbors[a].append(b)
        neighbors[b].append(a)

    cam_to_world: Dict[str, RigidTransform] = {anchor: RigidTransform.identity()}
    queue = deque([anchor])
    while queue:
        known = queue.popleft()
        for nb in neighbors[known]:
            if nb in cam_to_world:
                continue
            if (nb, known) in edges:
                t_nb_known = edges[(nb, known)]
            else:
                t_nb_known = invert(edges[(known, nb)])
            cam_to_world[nb] = compose(cam_to_world[known], t_nb_known)
            queue.append(nb)

    missing = [c for c in cameras if c not in cam_to_world]
    if missing:
        raise InsufficientObservations(
            f"no co-observation chain links {missing} to anchor {anchor!r}"
        )
    return {c: cam_to_world[c] for c in cameras}
