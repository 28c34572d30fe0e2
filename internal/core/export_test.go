package core

// StreamedAudits is how many of a's audits were committed streamed.
func StreamedAudits(a *Auditor) int { return a.streamed }
