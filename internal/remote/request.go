package remote

import (
	"fmt"
	"math"
	"strconv"

	"zng/internal/config"
	"zng/internal/wire"
)

// RunRequest is the POST /v1/run body: Client encodes it and zngd
// (internal/simsvc) decodes it. Exactly one of Mix (a registered
// scenario name) or Apps (zngsim's ad-hoc composition syntax, e.g.
// "bfs1,gaus*1.5") selects the workload. Client sends the cell's mix
// as Apps, derived from its content ID, so unregistered compositions
// work and a registered scenario resolves to the same cell key, and
// the same result document, on the peer.
type RunRequest struct {
	Platform string
	Mix      string
	Apps     string
	Scale    float64
	Priority int
	// Async returns 202 with the job instead of waiting for the
	// result; poll GET /v1/jobs/{id}. With ?wait=D the reply waits up
	// to D for the job, and a job that finishes within it is answered
	// as a done-job poll is: 200 with the result document.
	Async bool
	// Config, when present, is decoded over what the field already
	// points at: zngd points it at a copy of its base configuration,
	// so absent fields inherit the base instead of zeroing (a partial
	// {"Flash":{"Channels":8}} means base-plus-8-channels). A
	// campaign.Override's document is the same partial document,
	// decoded the same way. Client sends every field, so a full
	// config, the exact cell a campaign addressed, passes through
	// unchanged and both sides hash the same cell key, keeping
	// distributed results byte-identical to local ones.
	Config *config.Config
}

// AppendJSON appends the request as one JSON object:
//
//	{"platform":…,"mix":…,"apps":…,"scale":…,"priority":…,"async":…,"config":{…}}
//
// with "mix", "apps", "priority" and "config" only when set, strings
// and the scale as encoding/json writes them and the configuration as
// json.Marshal does. Client's requests are the bytes json.Marshal
// wrote for them before this codec. A non-finite scale or
// configuration value has no JSON form and is an error.
func (r *RunRequest) AppendJSON(b []byte) ([]byte, error) {
	if math.IsNaN(r.Scale) || math.IsInf(r.Scale, 0) {
		return b, fmt.Errorf("remote: scale %v has no JSON form", r.Scale)
	}
	b = append(b, `{"platform":`...)
	b = wire.AppendString(b, r.Platform)
	if r.Mix != "" {
		b = append(b, `,"mix":`...)
		b = wire.AppendString(b, r.Mix)
	}
	if r.Apps != "" {
		b = append(b, `,"apps":`...)
		b = wire.AppendString(b, r.Apps)
	}
	b = append(b, `,"scale":`...)
	b = wire.AppendFloat(b, r.Scale)
	if r.Priority != 0 {
		b = append(b, `,"priority":`...)
		b = strconv.AppendInt(b, int64(r.Priority), 10)
	}
	if r.Async {
		b = append(b, `,"async":true`...)
	} else {
		b = append(b, `,"async":false`...)
	}
	if r.Config != nil {
		b = append(b, `,"config":`...)
		var err error
		if b, err = r.Config.AppendJSON(b); err != nil {
			return b, err
		}
	}
	return append(b, '}'), nil
}

// DecodeJSON reads one request from b over r, as json.Decoder with
// DisallowUnknownFields decoded into the request struct before this
// codec: keys match exactly or else under case folding, absent fields
// and nulls keep their value, a repeated key applies again, and an
// unknown key at any depth is an error naming it. A "config" object
// decodes over *r.Config (config.DecodeJSON), a fresh zero
// configuration when r.Config is nil, and "config": null sets r.Config
// to nil. Only whitespace may follow the object.
func (r *RunRequest) DecodeJSON(b []byte) error {
	var d wire.Decoder
	d.Reset(b)
	if !d.Null() {
		for more := d.Object(); more; more = d.More() {
			key := d.Key()
			switch {
			case wire.KeyIs(key, "platform"):
				readString(&d, &r.Platform)
			case wire.KeyIs(key, "mix"):
				readString(&d, &r.Mix)
			case wire.KeyIs(key, "apps"):
				readString(&d, &r.Apps)
			case wire.KeyIs(key, "scale"):
				if !d.Null() {
					r.Scale = d.Float()
				}
			case wire.KeyIs(key, "priority"):
				if !d.Null() {
					n := d.Int()
					if int64(int(n)) != n {
						d.Fail(fmt.Errorf(`"priority": %d overflows int`, n))
					}
					r.Priority = int(n)
				}
			case wire.KeyIs(key, "async"):
				if !d.Null() {
					r.Async = d.Bool()
				}
			case wire.KeyIs(key, "config"):
				if d.Null() {
					r.Config = nil
					break
				}
				if r.Config == nil {
					r.Config = new(config.Config)
				}
				r.Config.DecodeJSON(&d)
			default:
				d.Fail(fmt.Errorf("unknown field %q", key))
			}
		}
	}
	d.End()
	return d.Err()
}

// readString reads a string, or a null that keeps *s.
func readString(d *wire.Decoder, s *string) {
	if !d.Null() {
		*s = string(d.Str())
	}
}
