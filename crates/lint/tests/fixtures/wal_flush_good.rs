//! Known-good: the append dominates the (queued) ack, and `commit` runs the
//! journal barrier (`sync`) before the one socket write (`flush`).

pub struct WireStats {
    rejected_parse: u64,
}

pub struct WireMetrics {
    rejected_parse: Gauge,
}

impl WireMetrics {
    pub fn publish(&self, wire: &WireStats) {
        self.rejected_parse.set(wire.rejected_parse);
    }
}

impl Frontend {
    pub fn handle_line(&mut self, line_no: u64, spec: JobSpec) -> Result<(), WalError> {
        self.durable.append(WalRecord::Job(spec.clone()))?;
        self.responder.accepted(line_no, spec.id);
        Ok(())
    }

    pub fn commit(&mut self) -> Result<(), WalError> {
        self.durable.sync()?;
        self.responder.flush();
        Ok(())
    }
}
