"""spinekit: geometric and tissue characterization of segmented spine CT volumes."""

from .alpha_mesh import AUTO, MeshMetrics, TriangleMesh, build_alpha_shape, mesh_metrics
from .errors import (DegenerateDistributionError, DescriptorError,
                     EmptySelectionError, ExtractionError, MappingError,
                     MeshContractError, PhantomSpecError, ReconstructionError,
                     RoiTooSmallError, SpineKitError, ThresholdFailureError)
from .interspace import (InterspaceMesh, InterspaceVoxelStats, build_interspace,
                         facing_vertices, filter_body, interspace_voxel_stats)
from .phantom import (CompoundTruth, DiscPairTruth, make_compound_vertebra,
                      make_disc_pair, make_sphere_phantom, phantom_from_spec)
from .region_segmentation import (DensityCurve, DistanceSamples, Region,
                                  RegionLabeling, Thresholds, classify_vertices,
                                  degraded_thresholds, density_critical_points,
                                  distance_distribution, estimate_density,
                                  find_thresholds, silverman_bandwidth)
from .report_cli import (PipelineConfig, SpineReport, emit_outputs, main,
                         run_pipeline)
from .roi_analysis import RoiStats, max_inscribed_radius, roi_stats
from .texture_mapping import CRITERIA, VertexTexture, map_grey, region_mean_hu
from .volume_io import (CentroidAnnotation, LabeledVolume, PointCloud,
                        extract_label_points, load_volume, write_volume)

__version__ = "0.1.0"
