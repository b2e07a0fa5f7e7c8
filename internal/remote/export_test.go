package remote

// ParseEnvelope exposes the reply reader to the external tests, which
// hold it to encoding/json over replies a live zngd handler wrote.
var ParseEnvelope = parseEnvelope
