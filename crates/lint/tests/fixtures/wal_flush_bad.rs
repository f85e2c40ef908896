//! Known-bad: the append dominates the ack, but the append only queues a
//! frame — and `commit` writes the queued acks to the socket (`flush`)
//! before the journal barrier (`sync`) has made their records durable.

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
        self.responder.flush();
        self.durable.sync()?;
        Ok(())
    }
}
