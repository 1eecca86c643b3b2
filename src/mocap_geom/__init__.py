"""Multi-view marker-based optical motion capture geometry engine."""

from .core import (CameraExtrinsics, CameraIntrinsics, DepthFrame, IrMask,
                   MultiViewRig, ReflectorId, ReflectorKind, backproject,
                   project, to_camera, to_global)
from .maps import (Annotation2D, ConfidenceMap, FlowField, InferenceParams,
                   MapSynthesisParams, ReflectorEstimate2D, fuse_confidence,
                   greedy_inference, line_integral, loss_fields, loss_maps,
                   synth_confidence_map, synth_flow_field)
from .filtering import FilterParams, apply_filters
from .spatial import (OpticalFrame, OpticalPoint, Region, ViewObservation,
                      find_regions_labeled, fuse_patch, fuse_reflector,
                      fuse_strap, fuse_strap_single_view, observe_batch,
                      observe_frame, split_merged_region)
from .kalman import KalmanParams, ReflectorTracker, kalman_step
from .skeleton import (CalibrationConfig, Pose, SkeletonTemplate,
                       calibrate_bone, calibrate_template, coarse_scale,
                       fit_pose, fit_pose_targets, joint_target, track)
from .synth import MotionScript, SyntheticBody, animate, default_rig, render
from .metrics import (EvalReport, Pck2dParams, average_precision, map_sweep,
                      mae_rmse, pck2d_correct, pck3d)
from .config import PipelineConfig, load_config

__version__ = "0.1.0"
