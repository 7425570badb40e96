//! The origin-server "dial".
//!
//! The origin is modelled as a latency, not a peer, so a brownout is an
//! extra one-way delay added to every origin round trip while it lasts.
//! The host owns the dial (the simulator one per world, in its
//! [`Lent`](crate::io::Lent); the TCP node its own) and the chaos dispatch
//! turns it; a machine reads it only through the [`Fx`](crate::io::Fx) its
//! host lends for an exchange.

use workload::WebsiteId;

/// Origin-server health, one per host.
#[derive(Debug, Default)]
pub struct OriginDial {
    /// `(website filter, extra one-way ms)`; `None` = origins healthy.
    state: Option<(Option<u16>, u64)>,
}

impl OriginDial {
    /// Slow down the origin of `website` (or all origins) by `extra_ms`
    /// one-way.
    pub fn brownout(&mut self, website: Option<u16>, extra_ms: u64) {
        self.state = Some((website, extra_ms));
    }

    /// Return all origins to nominal latency.
    pub fn restore(&mut self) {
        self.state = None;
    }

    /// Extra one-way latency currently afflicting `website`'s origin.
    pub fn extra_ms(&self, website: WebsiteId) -> u64 {
        match self.state {
            Some((None, extra)) => extra,
            Some((Some(w), extra)) if w == website.0 => extra,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn origin_dial_scopes_brownouts_by_website() {
        let mut dial = OriginDial::default();
        assert_eq!(dial.extra_ms(WebsiteId(0)), 0);
        dial.brownout(Some(2), 400);
        assert_eq!(dial.extra_ms(WebsiteId(2)), 400);
        assert_eq!(dial.extra_ms(WebsiteId(3)), 0);
        dial.brownout(None, 150);
        assert_eq!(dial.extra_ms(WebsiteId(3)), 150);
        dial.restore();
        assert_eq!(dial.extra_ms(WebsiteId(2)), 0);
    }
}
