package service

import "context"

// Credentials are the transport-independent call credentials of a
// multi-tenant fleet: which tenant the caller claims, and the bearer token
// proving it. Transports attach them to the request context — the HTTP
// layer from the route's tenant segment plus the Authorization header, the
// stream transport from the hello frame — and the tenant auth interceptor
// validates them per call, so both wire paths share one enforcement point.
type Credentials struct {
	// Tenant is the tenant name the caller addressed ("" on untenanted
	// deployments and routes, which alias to the default tenant).
	Tenant string
	// Token is the HMAC bearer token minted for (tenant, worker).
	Token string
}

type credentialsKey struct{}

// WithCredentials returns a context carrying the call credentials.
func WithCredentials(ctx context.Context, creds Credentials) context.Context {
	return context.WithValue(ctx, credentialsKey{}, creds)
}

// CredentialsFrom extracts the call credentials attached by the transport;
// ok is false when the context carries none (in-process callers, tests).
func CredentialsFrom(ctx context.Context) (Credentials, bool) {
	creds, ok := ctx.Value(credentialsKey{}).(Credentials)
	return creds, ok
}
