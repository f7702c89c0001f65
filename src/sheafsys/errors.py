"""Exception types shared across the library."""


class SheafSysError(Exception):
    """Base class for all library errors."""


class OutOfRange(SheafSysError):
    """Restriction window exceeds the trajectory domain."""


class GridMismatch(SheafSysError):
    """Trajectories live on incompatible grids or channel layouts."""


class MisalignedOffset(GridMismatch):
    """Offset or length is not an integer multiple of the grid step."""


class JunctionMismatch(SheafSysError):
    """Gluing pieces disagree at the junction node."""


class ShiftMismatch(SheafSysError):
    """Time-shift bookkeeping of gluing pieces is inconsistent."""


class NotAMember(SheafSysError):
    """Trajectory fails the membership residual test of a behavior."""


class BlowUp(SheafSysError):
    """Integration left the admissible range before reaching the target length.

    Carries the truncated trajectory and the last valid node time.
    """

    def __init__(self, t_star, trajectory):
        super().__init__(f"solution exceeded the blow-up threshold after t = {t_star}")
        self.t_star = t_star
        self.trajectory = trajectory


class DimensionMismatch(SheafSysError):
    """State, input, or output dimensions do not agree."""


class StructureViolation(SheafSysError):
    """A structure matrix fails its algebraic requirement at a probe point."""


class NoninteractionViolation(SheafSysError):
    """The degeneracy conditions J grad S = 0, G grad H = 0 fail at a probe point."""


class ConstraintViolation(SheafSysError):
    """An algebraic side condition fails along a trajectory.

    Carries the name of the violated condition and the offending node.
    """

    def __init__(self, condition, node, residual):
        super().__init__(
            f"side condition '{condition}' violated at node {node} (residual {residual:.3e})"
        )
        self.condition = condition
        self.node = node
        self.residual = residual


class NotClosed(SheafSysError):
    """The designated constant leg of a machine does not land in a one-point sheaf."""


class ConfigError(SheafSysError):
    """Run configuration is missing, malformed, or refers to unknown systems."""
