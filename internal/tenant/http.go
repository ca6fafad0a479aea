package tenant

import (
	"net/http"
	"strings"

	"fleet/internal/protocol"
	"fleet/internal/server"
	"fleet/internal/service"
)

// tenantRoutePrefix scopes the tenant-addressed wire routes:
// /v1/t/<tenant>/task, /v1/t/<tenant>/gradient, /v1/t/<tenant>/stats.
const tenantRoutePrefix = "/v1/t/"

// Handler exposes the whole registry over HTTP. Tenant-scoped routes
// (/v1/t/<tenant>/<route>) resolve the named unit and serve the route on
// that unit's own endpoint — the exact protocol surface server.NewHandler
// defines, with the unit's own wire tally; every other path is the default
// tenant's. The handler only attaches credentials (tenant segment +
// Authorization bearer token) to the call context; enforcement happens in
// the unit's interceptor, shared with the stream transport.
func (r *Registry) Handler() http.Handler {
	endpoints := make(map[string]*server.Endpoint, len(r.units))
	for _, u := range r.units {
		endpoints[u.name] = server.NewEndpoint(u.Service())
	}
	def := endpoints[r.def.name]

	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		creds := service.Credentials{Token: bearerToken(req)}
		rest, scoped := strings.CutPrefix(req.URL.Path, tenantRoutePrefix)
		if !scoped {
			def.ServeHTTP(w, req.WithContext(service.WithCredentials(req.Context(), creds)))
			return
		}
		name, route, ok := strings.Cut(rest, "/")
		if !ok || name == "" {
			protocol.WriteError(w, protocol.Errorf(protocol.CodeInvalidArgument,
				"tenant route wants %s<tenant>/task|gradient|stats", tenantRoutePrefix))
			return
		}
		ep, found := endpoints[name]
		if !found {
			// Same shape as Registry.Resolve: don't confirm tenant
			// names to unauthenticated probers.
			protocol.WriteError(w, protocol.Errorf(protocol.CodeUnauthenticated, "unknown tenant"))
			return
		}
		creds.Tenant = name
		ep.Serve(service.WithCredentials(req.Context(), creds), w, req, route)
	})
}

// bearerToken extracts the RFC 6750 bearer token from the Authorization
// header ("" when absent). The scheme matches in any case (RFC 7235 §2.1).
func bearerToken(req *http.Request) string {
	const prefix = "Bearer "
	auth := req.Header.Get("Authorization")
	if len(auth) < len(prefix) || !strings.EqualFold(auth[:len(prefix)], prefix) {
		return ""
	}
	return auth[len(prefix):]
}
