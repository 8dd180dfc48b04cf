//! SCL error types.

use std::fmt;

use crate::topology::EndpointId;

/// Errors surfaced by the communication layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SclError {
    /// The destination endpoint has been dropped (its inbox is gone).
    Disconnected(EndpointId),
    /// The destination endpoint id was never registered with the fabric.
    UnknownEndpoint(EndpointId),
    /// `recv` on an endpoint bound to no scheduler task found nothing
    /// staged: there is no virtual clock to wait on, so it fails at once.
    NothingStaged,
    /// Every retransmission attempt towards the endpoint was lost; the
    /// retry policy declared it dead (crashed, partitioned away, or the
    /// fault plan is simply too hostile for the configured attempt cap).
    Unreachable(EndpointId),
}

impl fmt::Display for SclError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SclError::Disconnected(id) => write!(f, "endpoint {:?} disconnected", id),
            SclError::UnknownEndpoint(id) => write!(f, "unknown endpoint {:?}", id),
            SclError::NothingStaged => {
                write!(f, "nothing staged and no scheduler task to wait on")
            }
            SclError::Unreachable(id) => {
                write!(f, "endpoint {:?} unreachable after retries", id)
            }
        }
    }
}

impl std::error::Error for SclError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SclError::UnknownEndpoint(EndpointId(42));
        assert!(e.to_string().contains("42"));
        assert!(SclError::NothingStaged.to_string().contains("nothing staged"));
        assert!(SclError::Unreachable(EndpointId(3)).to_string().contains("unreachable"));
    }
}
